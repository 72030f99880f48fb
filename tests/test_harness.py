"""Config parsing, grid execution, CSV export, verification, rate fits."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from restartfom import harness
from restartfom.async_scheme import DelayModel
from restartfom.bounds import BoundReport
from restartfom.errors import ConfigError, ParameterError
from restartfom.harness import (
    CSV_COLUMNS,
    DEFAULT_BUDGET,
    DEFAULT_OUTPUT_DIR,
    OUTPUT_DIR_ENV,
    PROBLEM_FAMILIES,
    ExperimentConfig,
    FitResult,
    RunSummary,
    build_problem,
    fit_rate,
    load_summaries,
    parse_config,
    resolve_output_dir,
    run_cell,
    run_grid,
    verify_bounds,
    write_summaries_csv,
)
from restartfom.harness import _delay_for_cell, _trace_filename
from restartfom.problems import (
    make_least_squares_problem,
    make_norm_power_problem,
    make_piecewise_max_problem,
)


def minimal_config(**overrides) -> dict:
    document = {
        "problem": {"family": "norm-power", "dimension": 1, "mu": 1.0,
                    "d": 1.0, "gap": 3.0},
        "method": "subgrad",
        "scheme": "sync-lockstep",
        "eps": [0.5, 0.25],
    }
    document.update(overrides)
    return document


def async_config(**overrides) -> dict:
    document = minimal_config(scheme="async",
                              delay={"transit_kind": "deterministic",
                                     "tau_transit": 1.0,
                                     "pause_kind": "deterministic",
                                     "tau_pause": 4.0})
    document.update(overrides)
    return document


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def test_parse_minimal_config_fills_defaults():
    config = parse_config(minimal_config())
    assert config.eps == (0.5, 0.25)
    assert config.N is None  # per-cell default_N
    assert config.delay is None
    assert config.seeds == (0,)
    assert config.budget == DEFAULT_BUDGET
    assert config.out is None
    assert config.method.kind == "subgrad"
    assert type(config.problem) is PROBLEM_FAMILIES["norm-power"]


def test_parse_config_accepts_json_text():
    config = parse_config(json.dumps(minimal_config()))
    assert config.scheme == "sync-lockstep"


def test_parse_config_rejects_invalid_json():
    with pytest.raises(ConfigError) as err:
        parse_config("{not json")
    assert "not valid JSON" in err.value.message


def test_parse_config_rejects_non_object():
    with pytest.raises(ConfigError):
        parse_config(json.dumps([1, 2]))


def test_parse_config_rejects_unknown_top_level_key():
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_config(typo=1))
    assert err.value.path == "typo"


@pytest.mark.parametrize("key", ["problem", "method", "scheme", "eps"])
def test_parse_config_requires_core_keys(key):
    document = minimal_config()
    del document[key]
    with pytest.raises(ConfigError) as err:
        parse_config(document)
    assert err.value.path == key


def test_parse_config_rejects_unknown_scheme():
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_config(scheme="parallel"))
    assert err.value.path == "scheme"


def test_parse_problem_rejects_unknown_family():
    document = minimal_config()
    document["problem"]["family"] = "quadratic"
    with pytest.raises(ConfigError) as err:
        parse_config(document)
    assert err.value.path == "problem.family"


def test_parse_problem_rejects_unknown_key():
    document = minimal_config()
    document["problem"]["typo"] = 1
    with pytest.raises(ConfigError) as err:
        parse_config(document)
    assert err.value.path == "problem.typo"


def test_parse_problem_requires_fields():
    document = minimal_config()
    del document["problem"]["mu"]
    with pytest.raises(ConfigError) as err:
        parse_config(document)
    assert err.value.path == "problem.mu"


def test_parse_problem_rejects_degree_below_one():
    document = minimal_config()
    document["problem"]["d"] = 0.5
    with pytest.raises(ConfigError) as err:
        parse_config(document)
    assert err.value.path == "problem.d"


def test_parse_problem_rejects_nonpositive_gap():
    document = minimal_config()
    document["problem"]["gap"] = 0.0
    with pytest.raises(ConfigError) as err:
        parse_config(document)
    assert err.value.path == "problem.gap"


def test_parse_problem_center_must_match_dimension():
    document = minimal_config()
    document["problem"]["center"] = [1.0, 2.0]
    with pytest.raises(ConfigError) as err:
        parse_config(document)
    assert err.value.path == "problem.center"


def test_parse_problem_piecewise_max():
    document = minimal_config()
    document["problem"] = {"family": "piecewise-max", "dimension": 3,
                           "num_pieces": 8, "gap": 2.0}
    config = parse_config(document)
    assert config.problem.num_pieces == 8


def test_parse_problem_least_squares_rank_and_sigma():
    document = minimal_config()
    document["problem"] = {"family": "least-squares", "dimension": 4,
                           "num_rows": 6, "gap": 2.0, "rank": 3,
                           "sigma_range": [1.0, 5.0]}
    config = parse_config(document)
    assert config.problem.rank == 3
    assert config.problem.sigma_range == (1.0, 5.0)

    document["problem"]["rank"] = 9
    with pytest.raises(ConfigError) as err:
        parse_config(document)
    assert err.value.path == "problem.rank"

    document["problem"]["rank"] = 3
    document["problem"]["sigma_range"] = [5.0, 1.0]
    with pytest.raises(ConfigError) as err:
        parse_config(document)
    assert err.value.path == "problem.sigma_range"


# A valid value for every problem field a family in PROBLEM_FAMILIES declares.
FIELD_SAMPLES = {"dimension": 3, "mu": 1.5, "d": 1.5, "center": [0.5, -1.0, 2.0], "gap": 2.5,
                 "num_pieces": 8, "num_rows": 5, "rank": 2, "sigma_range": [0.5, 2.0]}

FAMILY_FIELDS = [(family, field.name, field.default is dataclasses.MISSING)
                 for family, spec in PROBLEM_FAMILIES.items()
                 for field in dataclasses.fields(spec)]
FAMILY_FIELDS += [(family, "gap", True) for family in PROBLEM_FAMILIES]  # ExperimentConfig.gap


def minimal_problem(family: str) -> dict:
    return {"family": family, **{name: FIELD_SAMPLES[name]
                                 for kind, name, required in FAMILY_FIELDS
                                 if kind == family and required}}


@pytest.mark.parametrize("family, name", [(family, name)
                                          for family, name, required in FAMILY_FIELDS
                                          if required])
def test_every_required_problem_field_is_required(family, name):
    problem = minimal_problem(family)
    del problem[name]
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_config(problem=problem))
    assert err.value.path == f"problem.{name}"


@pytest.mark.parametrize("family, name", [(family, name)
                                          for family, name, _ in FAMILY_FIELDS])
@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_in_any_problem_field_is_refused_there(family, name, flag):
    problem = {**minimal_problem(family), name: flag}
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_config(problem=problem))
    assert err.value.path == f"problem.{name}"


# One broken rule per field: the generator refuses it by name, and parse_config,
# which builds the same spec, locates that refusal at the field.
RULE_CASES = [
    ("dimension", lambda: make_least_squares_problem(0, 3, seed=0),
     {"family": "least-squares", "dimension": 0, "num_rows": 3}),
    ("mu", lambda: make_norm_power_problem(2, mu=0.0, d=1.0),
     {"family": "norm-power", "dimension": 2, "mu": 0.0, "d": 1.0}),
    ("d", lambda: make_norm_power_problem(2, mu=1.0, d=0.5),
     {"family": "norm-power", "dimension": 2, "mu": 1.0, "d": 0.5}),
    ("center", lambda: make_norm_power_problem(2, mu=1.0, d=1.0, center=[1.0]),
     {"family": "norm-power", "dimension": 2, "mu": 1.0, "d": 1.0, "center": [1.0]}),
    ("num_pieces", lambda: make_piecewise_max_problem(3, 3, seed=0),
     {"family": "piecewise-max", "dimension": 3, "num_pieces": 3}),
    ("num_rows", lambda: make_least_squares_problem(4, 3, seed=0),
     {"family": "least-squares", "dimension": 4, "num_rows": 3}),
    ("rank", lambda: make_least_squares_problem(4, 6, seed=0, rank=5),
     {"family": "least-squares", "dimension": 4, "num_rows": 6, "rank": 5}),
    ("sigma_range", lambda: make_least_squares_problem(4, 6, seed=0, sigma_range=(2.0, 1.0)),
     {"family": "least-squares", "dimension": 4, "num_rows": 6, "sigma_range": [2.0, 1.0]}),
]


@pytest.mark.parametrize("field, generate, problem", RULE_CASES,
                         ids=[field for field, _, _ in RULE_CASES])
def test_each_problem_rule_is_checked_once_and_located_at_its_field(field, generate, problem):
    with pytest.raises(ParameterError) as refused:
        generate()
    assert refused.value.field == field
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_config(problem={**problem, "gap": 2.0}))
    assert err.value.path == f"problem.{field}"
    assert type(err.value.__cause__) is ParameterError
    assert err.value.__cause__.field == field


def test_an_int_in_a_float_field_is_held_as_a_float(tmp_path):
    config = parse_config(minimal_config(
        problem={"family": "norm-power", "dimension": 2, "mu": 2, "d": 2, "center": [1, -1],
                 "gap": 8}, eps=[0.5]))
    spec = config.problem
    assert type(spec.mu) is float and type(spec.d) is float and type(config.gap) is float
    assert spec.center == (1.0, -1.0) and all(type(x) is float for x in spec.center)
    (summary,) = run_grid(config, tmp_path)
    assert type(summary.growth_d) is float
    assert '"growth_d": 2.0,' in (tmp_path / "summaries.json").read_text()


@pytest.mark.parametrize("family", list(PROBLEM_FAMILIES))
@pytest.mark.parametrize("seed", [0, 3])
def test_every_family_builds_from_its_minimal_spec_with_the_start_at_gap(family, seed):
    config = parse_config(minimal_config(problem=minimal_problem(family)))
    problem, x0 = build_problem(config, seed=seed)
    assert problem.dimension == FIELD_SAMPLES["dimension"]
    gap = problem.value(x0) - problem.metadata.f_star
    assert gap == pytest.approx(FIELD_SAMPLES["gap"], rel=1e-9)


@pytest.mark.parametrize("family", list(PROBLEM_FAMILIES))
def test_every_family_carries_the_metadata_and_distance_run_cell_needs(family):
    # run_cell reads growth metadata and distance_to_opt(x0) without a fallback.
    config = parse_config(minimal_config(problem=minimal_problem(family)))
    problem, x0 = build_problem(config, seed=0)
    assert problem.metadata is not None
    assert np.isfinite(problem.distance_to_opt(x0))


@pytest.mark.parametrize("method, where", [
    ({"kind": 3}, "method.kind"),
    ({"kind": "accel", "L": True}, "method.L"),
    ({"kind": "univ", "L0": "1"}, "method.L0"),
    ({"kind": "accel", "L": -1.0}, "method"),
])
def test_parse_method_locates_type_and_range_errors(method, where):
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_config(method=method))
    assert err.value.path == where


def test_parse_method_accepts_object_form():
    config = parse_config(minimal_config(method={"kind": "accel", "L": 4.0}))
    assert config.method.kind == "accel"
    assert config.method.L == 4.0


def test_parse_method_univ_requires_l0():
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_config(method="univ"))
    assert err.value.path == "method.L0"
    config = parse_config(minimal_config(method={"kind": "univ", "L0": 0.5}))
    assert config.method.L0 == 0.5


def test_parse_method_rejects_unknown_kind_and_key():
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_config(method="gradient-descent"))
    assert err.value.path == "method"
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_config(method={"kind": "subgrad", "step": 0.1}))
    assert err.value.path == "method.step"


def test_parse_eps_scalar_coerced_to_grid():
    config = parse_config(minimal_config(eps=0.125))
    assert config.eps == (0.125,)


def test_parse_eps_must_be_positive_and_distinct():
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_config(eps=[0.5, -0.25]))
    assert err.value.path == "eps[1]"
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_config(eps=[0.5, 0.5]))
    assert err.value.path == "eps"
    with pytest.raises(ConfigError):
        parse_config(minimal_config(eps=[]))


def test_parse_n_rule():
    assert parse_config(minimal_config(N="default")).N is None
    assert parse_config(minimal_config(N=-1)).N == -1
    assert parse_config(minimal_config(N=4)).N == 4
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_config(N=-2))
    assert err.value.path == "N"


def test_parse_async_requires_delay_model():
    document = minimal_config(scheme="async")
    with pytest.raises(ConfigError) as err:
        parse_config(document)
    assert err.value.path == "delay"


def test_parse_sync_rejects_delay_model():
    document = minimal_config(delay={"transit_kind": "deterministic"})
    with pytest.raises(ConfigError) as err:
        parse_config(document)
    assert err.value.path == "delay"


def test_parse_delay_model_fields():
    config = parse_config(async_config())
    assert isinstance(config.delay, DelayModel)
    assert config.delay.tau_pause == 4.0

    document = async_config()
    document["delay"]["typo"] = 1
    with pytest.raises(ConfigError) as err:
        parse_config(document)
    assert err.value.path == "delay.typo"

    document = async_config()
    document["delay"]["transit_kind"] = "gaussian"
    with pytest.raises(ConfigError) as err:
        parse_config(document)
    assert err.value.path == "delay"


def test_parse_seed_and_seeds_are_exclusive():
    assert parse_config(minimal_config(seed=7)).seeds == (7,)
    assert parse_config(minimal_config(seeds=[1, 2, 3])).seeds == (1, 2, 3)
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_config(seed=1, seeds=[2]))
    assert err.value.path == "seeds"
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_config(seed=-1))
    assert err.value.path == "seed"


def test_a_non_integer_N_or_seed_and_an_empty_seed_list_are_refused_at_their_entry():
    for overrides, where in [({"N": 1.5}, "N"), ({"N": True}, "N"), ({"seeds": [0, 1.5]}, "seeds[1]"),
                             ({"seeds": [0, True]}, "seeds[1]"), ({"seeds": []}, "seeds"),
                             ({"seed": 2.0}, "seed")]:
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_config(**overrides))
        assert err.value.path == where, overrides


def test_duplicate_seeds_are_refused_at_seeds():
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_config(seeds=[1, 2, 1]))
    assert err.value.path == "seeds"
    assert "distinct" in err.value.message


def test_the_config_defaults_are_the_dataclass_defaults():
    config = parse_config(minimal_config())
    assert ExperimentConfig(config.problem, config.gap, config.method, config.scheme,
                            config.eps) == config


# A broken rule: the change to a built config, the same change in a document, and
# where parse_config locates it.  The field is the path, but for gap's.
BROKEN_RULES = [
    ({"seeds": (-1,)}, {"seeds": [-1]}, "seeds[0]"),
    ({"seeds": (1, 1)}, {"seeds": [1, 1]}, "seeds"),
    ({"budget": 0}, {"budget": 0}, "budget"),
    ({"budget": 10 ** 400}, {"budget": 10 ** 400}, "budget"),
    ({"N": -2}, {"N": -2}, "N"),
    ({"eps": (0.5, 0.5)}, {"eps": [0.5, 0.5]}, "eps"),
    ({"eps": (0.5, 1e-320)}, {"eps": [0.5, 1e-320]}, "eps[1]"),
    ({"scheme": "async"}, {"scheme": "async"}, "delay"),
    ({"scheme": "parallel"}, {"scheme": "parallel"}, "scheme"),
    ({"gap": -1.0}, {"problem": {**minimal_config()["problem"], "gap": -1.0}}, "problem.gap"),
]


@pytest.mark.parametrize("change, document, where", BROKEN_RULES,
                         ids=[where for _, _, where in BROKEN_RULES])
def test_a_rule_is_checked_alike_when_built_replaced_or_parsed(change, document, where):
    config = parse_config(minimal_config())
    field = "gap" if where == "problem.gap" else where
    fields = {name: getattr(config, name) for name in ("problem", "gap", "method", "scheme",
                                                        "eps")}
    with pytest.raises(ParameterError) as built:
        ExperimentConfig(**{**fields, **change})
    assert built.value.field == field
    with pytest.raises(ParameterError) as replaced:
        dataclasses.replace(config, **change)
    assert replaced.value.field == field
    with pytest.raises(ConfigError) as parsed:
        parse_config(minimal_config(**document))
    assert parsed.value.path == where
    assert str(parsed.value.__cause__) == str(built.value)


def test_parse_budget_and_out():
    config = parse_config(minimal_config(budget=500, out="results"))
    assert config.budget == 500.0
    assert config.out == "results"
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_config(budget=0))
    assert err.value.path == "budget"
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_config(out=7))
    assert err.value.path == "out"


# ---------------------------------------------------------------------------
# Problem building
# ---------------------------------------------------------------------------


def test_build_problem_norm_power_honors_gap_and_center():
    document = minimal_config()
    document["problem"]["center"] = [2.0]
    config = parse_config(document)
    problem, x0 = build_problem(config, seed=0)
    assert problem.evaluate(x0).value == pytest.approx(3.0)
    assert problem.distance_to_opt(x0) == pytest.approx(3.0)  # mu = 1


def test_build_problem_seed_controls_instance():
    document = minimal_config()
    document["problem"] = {"family": "least-squares", "dimension": 3,
                           "num_rows": 5, "gap": 2.0}
    config = parse_config(document)
    _, x0_a = build_problem(config, seed=1)
    _, x0_b = build_problem(config, seed=1)
    _, x0_c = build_problem(config, seed=2)
    assert np.array_equal(x0_a, x0_b)
    assert not np.array_equal(x0_a, x0_c)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def sample_summary(**overrides) -> RunSummary:
    base = dict(eps=0.5, N=1, n_bar=1, scheme="sync-lockstep", method="subgrad",
                time_to_eps=3.0, oracle_calls_total=12, bound_theorem=103.0,
                bound_corollary=77.5, compliant=True, seed=0, complete=True,
                messages_total=4)
    base.update(overrides)
    return RunSummary(**base)


def read_csv_cells(path) -> list[dict]:
    """summary.csv read as README documents it: text columns bare, None
    empty, every other cell the JSON encoding of its value."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        assert reader.fieldnames == list(CSV_COLUMNS)
        return [{column: text if column in ("scheme", "method")
                 else json.loads(text) if text else None
                 for column, text in row.items()} for row in reader]


def test_csv_round_trip_preserves_every_row(tmp_path):
    summaries = [
        sample_summary(),
        sample_summary(eps=0.1 + 0.2, bound_theorem=1e-17, compliant=False),
        sample_summary(time_to_eps=None, n_bar=None, bound_theorem=None,
                       bound_corollary=None, compliant=None, complete=False),
    ]
    path = tmp_path / "summary.csv"
    write_summaries_csv(path, summaries)
    rows = read_csv_cells(path)
    assert rows == [summary.csv_record() for summary in summaries]


@given(
    eps=st.floats(1e-9, 1.0),
    time_to_eps=st.one_of(st.none(), st.floats(0, 1e12)),
    bound=st.one_of(st.none(), st.floats(0, 1e15)),
    compliant=st.one_of(st.none(), st.booleans()),
    calls=st.integers(0, 10 ** 9),
)
def test_csv_value_round_trip_is_lossless(tmp_path_factory, eps, time_to_eps,
                                          bound, compliant, calls):
    summary = sample_summary(eps=eps, time_to_eps=time_to_eps,
                             bound_theorem=bound, compliant=compliant,
                             oracle_calls_total=calls)
    path = tmp_path_factory.mktemp("csv") / "row.csv"
    write_summaries_csv(path, [summary])
    [row] = read_csv_cells(path)
    assert row == summary.csv_record()


def test_summary_json_round_trip():
    summary = sample_summary(restarts_per_copy={"0": 2, "1": 1}, growth_d=1.0,
                             f_x0=3.0, trace_path="trace-eps0.5-seed0.jsonl")
    assert RunSummary.from_json(json.loads(json.dumps(summary.to_json()))) == summary


# ---------------------------------------------------------------------------
# Grid execution
# ---------------------------------------------------------------------------


def test_run_grid_writes_all_artifacts(tmp_path):
    config = parse_config(minimal_config(seeds=[0, 1]))
    summaries = run_grid(config, out_dir=tmp_path / "out")
    assert len(summaries) == 4  # 2 eps x 2 seeds
    assert (tmp_path / "out" / "summary.csv").exists()
    assert (tmp_path / "out" / "summaries.json").exists()
    for summary in summaries:
        assert summary.error is None
        assert summary.compliant is True
        assert (tmp_path / "out" / summary.trace_path).exists()
    assert load_summaries(tmp_path / "out") == summaries
    rows = read_csv_cells(tmp_path / "out" / "summary.csv")
    assert rows == [summary.csv_record() for summary in summaries]


def test_run_grid_eps_ladder_all_compliant(tmp_path):
    # f = |x|, sync/subgrad, eps = 2^-1..2^-10: every cell within its bounds.
    config = parse_config(minimal_config(eps=[2.0 ** -k for k in range(1, 11)]))
    summaries = run_grid(config, out_dir=tmp_path)
    assert len(summaries) == 10
    assert all(summary.compliant is True for summary in summaries)
    report = verify_bounds(summaries)
    assert report.all_compliant and report.passed == 10


def test_run_grid_same_seed_traces_are_byte_identical(tmp_path):
    config = parse_config(async_config(seeds=[3],
                                       delay={"transit_kind": "uniform",
                                              "tau_transit": 1.0,
                                              "pause_kind": "uniform",
                                              "tau_pause": 2.0}))
    run_grid(config, out_dir=tmp_path / "a")
    run_grid(config, out_dir=tmp_path / "b")
    name = _trace_filename(0.25, 3)
    first = (tmp_path / "a" / name).read_bytes()
    second = (tmp_path / "b" / name).read_bytes()
    assert first == second and first


def _counting_builds(monkeypatch, fail_seed=None) -> list:
    """Record each seed ``harness.build_problem`` is called with; ``fail_seed`` fails."""

    seeds, build = [], harness.build_problem

    def counting(config, seed):
        seeds.append(seed)
        if seed == fail_seed:
            raise ParameterError("no instance at this seed", "seed")
        return build(config, seed)

    monkeypatch.setattr(harness, "build_problem", counting)
    return seeds


def test_run_grid_builds_each_seed_once_and_keeps_the_eps_major_order(tmp_path, monkeypatch):
    config = parse_config(async_config(eps=[0.5, 0.25, 0.125], seeds=[3, 1]))
    (tmp_path / "alone").mkdir()
    alone = [run_cell(config, eps, seed, out_dir=tmp_path / "alone")
             for eps in config.eps for seed in config.seeds]
    built = _counting_builds(monkeypatch)
    summaries = run_grid(config, out_dir=tmp_path / "grid")
    assert built == [3, 1]
    assert summaries == alone  # eps-major, and equal to cells that built their own
    for summary in summaries:
        assert ((tmp_path / "grid" / summary.trace_path).read_bytes()
                == (tmp_path / "alone" / summary.trace_path).read_bytes())


def test_a_failing_build_gives_each_of_its_cells_the_same_error_record(tmp_path, monkeypatch):
    config = parse_config(minimal_config(eps=[0.5, 0.25, 0.125], seeds=[0, 1]))
    built = _counting_builds(monkeypatch, fail_seed=1)
    summaries = run_grid(config, out_dir=tmp_path)
    assert built == [0, 1]
    failed = [summary for summary in summaries if summary.seed == 1]
    assert [summary.eps for summary in failed] == [0.5, 0.25, 0.125]
    assert failed == [run_cell(config, eps, 1, out_dir=tmp_path) for eps in config.eps]
    assert {summary.error for summary in failed} == {"ParameterError: no instance at this seed"}
    assert all(summary.error is None for summary in summaries if summary.seed == 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scheme", ["sync-lockstep", "async"])
def test_a_start_whose_squared_distance_overflows_runs(tmp_path, scheme):
    # ||x0 - center|| = 1e300: its square overflows, its value 1e300 does not.
    problem = {"family": "norm-power", "dimension": 2, "mu": 1.0, "d": 1.0, "gap": 1e300}
    document = minimal_config(problem=problem, scheme=scheme, eps=[0.5], budget=3)
    if scheme == "async":
        document["delay"] = {}
    summary = run_cell(parse_config(document), 0.5, 0, out_dir=tmp_path)
    assert summary.error is None and summary.f_x0 == 1e300
    assert summary.complete is False and summary.oracle_calls_total > 0


def test_run_grid_budget_limited_cell_is_flagged_not_fatal(tmp_path):
    document = minimal_config(eps=[0.5, 0.25], budget=2)
    document["problem"]["gap"] = 30.0
    summaries = run_grid(parse_config(document), out_dir=tmp_path)
    assert all(not summary.complete for summary in summaries)
    assert all(summary.time_to_eps is None for summary in summaries)
    # The tiny budget cannot witness a violation of the large bound totals.
    assert all(summary.compliant is None for summary in summaries)
    report = verify_bounds(summaries)
    assert report.unverifiable == 2 and report.failed == 0


def test_run_cell_surfaces_write_failure_in_summary(tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("occupied")
    config = parse_config(minimal_config())
    summary = run_cell(config, 0.5, 0, out_dir=blocker)
    assert summary.error is not None and "trace write failed" in summary.error
    assert summary.trace_path is None
    assert summary.compliant is True  # the run itself still happened


def test_run_cell_reports_simulation_errors(tmp_path):
    config = parse_config(minimal_config(method={"kind": "accel"}))
    # accel needs a curvature constant; the d=1 family provides none.
    summary = run_cell(config, 0.5, 0)
    assert summary.error is not None
    assert summary.complete is False and summary.compliant is None


@pytest.mark.parametrize("method", ["subgrad", {"kind": "accel", "L": 1.0},
                                    {"kind": "univ", "L0": 1.0}], ids=["subgrad", "accel", "univ"])
def test_a_subgradient_whose_square_overflows_warns_nothing(method):
    # Entries near 1e200 square beyond the float range: g·g must not warn.
    problem = {"family": "norm-power", "dimension": 2, "mu": 1.0, "d": 3.0, "gap": 1e300}
    config = parse_config(minimal_config(problem=problem, method=method, eps=[1e-100],
                                         budget=2))
    summary = run_cell(config, 1e-100, 0)
    if method == "subgrad":
        assert summary.error is None
    else:  # the extrapolated point's value is inf
        assert summary.error.startswith("NonFiniteValueError: ")


@pytest.mark.parametrize("scheme", ["sync-lockstep", "async"])
@pytest.mark.parametrize("mu, gap, passed", [(1e155, 1.0, 1), (1.7e308, 1.0, 1),
                                             (1.7e308, 1e300, 0)])
def test_copies_move_when_the_subgradient_squared_overflows(scheme, mu, gap, passed):
    # ||g|| = mu: g·g overflows, and a zero step once left every copy in place.
    # At gap 1e300 the gradient's factor mu / r overflows too; that cell runs
    # its budget out, without a warning.
    problem = {"family": "norm-power", "dimension": 2, "mu": mu, "d": 1.0, "gap": gap}
    delay = {"delay": {}} if scheme == "async" else {}
    config = parse_config(minimal_config(problem=problem, scheme=scheme, eps=[0.5], budget=200,
                                         **delay))
    summary = run_cell(config, 0.5, 0)
    assert summary.error is None
    assert verify_bounds([summary]).passed == passed


@pytest.mark.parametrize("problem", [
    {"family": "norm-power", "dimension": 2, "mu": 1e300, "d": 2.0, "gap": 1e300},
    {"family": "least-squares", "dimension": 3, "num_rows": 4,
     "sigma_range": [1e-150, 1e150], "gap": 1.0},
], ids=["norm-power", "least-squares"])
def test_a_univ_step_beyond_the_float_range_is_a_typed_error_without_a_warning(problem):
    # At L0 = 1e-300 the step a * g overflows: the cell records the refused point.
    config = parse_config(minimal_config(problem=problem, method={"kind": "univ", "L0": 1e-300},
                                         eps=[0.5], budget=3))
    summary = run_cell(config, 0.5, 0)
    assert summary.error.startswith("NonFiniteInputError: ")
    assert summary.compliant is None


def test_a_rank_one_least_squares_cell_has_the_top_of_its_range_as_its_one_singular_value():
    problem = {"family": "least-squares", "dimension": 3, "num_rows": 4, "rank": 1, "gap": 5.0}
    config = parse_config(minimal_config(problem=problem, method="accel"))
    metadata = build_problem(config, seed=0)[0].metadata
    # sigma_range (1, 2): L = sigma**2 = 4, and f - f* = (sigma**2 / 2) dist**2.
    assert (metadata.L, metadata.mu, metadata.d) == pytest.approx((4.0, 2.0, 2.0), rel=1e-12)
    summary = run_cell(config, 0.5, 0)
    assert summary.error is None and summary.compliant is True


def test_univ_on_piecewise_max_has_no_bound_and_no_error():
    # Piecewise-max metadata has no Hölder constants, which univ's guarantees need.
    problem = {"family": "piecewise-max", "dimension": 4, "num_pieces": 12, "gap": 8.0}
    config = parse_config(async_config(problem=problem, method={"kind": "univ", "L0": 1.0}))
    summary = run_cell(config, 0.5, 0)
    assert summary.bound_theorem is None and summary.bound_corollary is None
    assert summary.bound_reports == {"theorem": None, "corollary": None}
    assert summary.error is None and summary.compliant is None
    assert verify_bounds([summary]).unverifiable == 1


def test_sequential_theorem_bound_is_n_plus_two_lockstep_bounds():
    problem = {"family": "norm-power", "dimension": 1, "mu": 1.0, "d": 1.0, "gap": 30.0}
    lockstep, sequential = (run_cell(parse_config(minimal_config(problem=problem, scheme=scheme)),
                                     0.25, 0) for scheme in ("sync-lockstep", "sync-sequential"))
    assert sequential.N == lockstep.N == 2
    # One lockstep period is N + 2 single-copy slots.
    assert lockstep.bound_theorem == 1203.0
    assert sequential.bound_theorem == (sequential.N + 2) * lockstep.bound_theorem == 4812.0
    assert sequential.bound_corollary is None
    assert sequential.compliant is True


def test_trace_filenames_embed_cell_key():
    assert _trace_filename(0.5, 3) == "trace-eps0.5-seed3.jsonl"
    assert _trace_filename(2.0 ** -10, 0) == "trace-eps0.0009765625-seed0.jsonl"


def test_delay_for_cell_seeding():
    config = parse_config(async_config(seeds=[5]))
    assert config.delay.seed is None
    assert _delay_for_cell(config, 5).seed == 5

    document = async_config()
    document["delay"]["seed"] = 11
    pinned = parse_config(document)
    assert _delay_for_cell(pinned, 5).seed == 11


def test_resolve_output_dir_precedence(monkeypatch):
    config = parse_config(minimal_config(out="from-config"))
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    assert str(resolve_output_dir(config, "explicit")) == "explicit"
    assert str(resolve_output_dir(config)) == "from-config"
    monkeypatch.setenv(OUTPUT_DIR_ENV, "from-env")
    assert str(resolve_output_dir(config)) == "from-env"
    assert str(resolve_output_dir(config, "explicit")) == "explicit"
    monkeypatch.delenv(OUTPUT_DIR_ENV)
    bare = parse_config(minimal_config())
    assert str(resolve_output_dir(bare)) == DEFAULT_OUTPUT_DIR


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def test_verify_bounds_fault_injection_names_tightest_bound(tmp_path):
    config = parse_config(minimal_config(eps=[0.5]))
    [summary] = run_grid(config, out_dir=tmp_path)
    assert verify_bounds([summary]).all_compliant

    # Halve the corollary below the measurement: that is now the tightest
    # violated bound and must be the one the report names.
    broken = dataclasses.replace(summary,
                                 bound_corollary=summary.time_to_eps / 2,
                                 bound_theorem=summary.time_to_eps * 10)
    report = verify_bounds([broken])
    assert report.failed == 1
    [verdict] = report.verdicts
    assert verdict.status == "fail"
    name, value = verdict.tightest_violated
    assert name == "subgrad corollary bound"
    assert value == summary.time_to_eps / 2
    assert "[FAIL]" in verdict.line()


def test_verify_bounds_accepts_json_records(tmp_path):
    config = parse_config(minimal_config(eps=[0.5]))
    run_grid(config, out_dir=tmp_path)
    with open(tmp_path / "summaries.json") as handle:
        records = json.load(handle)["summaries"]
    report = verify_bounds([RunSummary.from_json(record) for record in records])
    assert report.passed == 1


def test_verify_bounds_unverifiable_cell():
    bare = sample_summary(bound_theorem=None, bound_corollary=None, compliant=None)
    report = verify_bounds([bare])
    assert report.unverifiable == 1
    assert report.all_compliant  # nothing failed, nothing passed
    [verdict] = report.verdicts
    assert "[----]" in verdict.line()


def test_verify_bounds_incomplete_violation():
    # Budget 200 overran a promised total of 150 without reaching eps.
    overdue = sample_summary(time_to_eps=None, complete=False,
                             bound_theorem=150.0, bound_corollary=None,
                             compliant=False, budget=200)
    report = verify_bounds([overdue])
    [verdict] = report.verdicts
    assert verdict.status == "fail"
    assert verdict.tightest_violated == ("sync theorem bound", 150.0)
    assert "incomplete run" in verdict.line()


def _overdue_cell(monkeypatch, budget: float) -> RunSummary:
    # A 2.5-period guarantee on a cell that cannot reach eps in under 3 periods.
    monkeypatch.setattr(harness, "bound_sync_theorem", lambda *args: BoundReport(
        "sync_theorem", 0, 2.5, [("startup", 2.5)], "below-5-2^N", True))
    problem = {"family": "norm-power", "dimension": 1, "mu": 1.0, "d": 1.0, "gap": 1e6}
    config = parse_config(minimal_config(problem=problem, eps=[1e-3], budget=budget))
    summary = run_cell(config, 1e-3, 0)
    assert not summary.complete and summary.bound_theorem == 2.5
    return summary


def test_an_incomplete_cell_is_judged_by_the_periods_it_ran(monkeypatch):
    # Budget 2.9 runs 2 whole periods: they do not reach the 2.5-period bound.
    summary = _overdue_cell(monkeypatch, 2.9)
    assert summary.compliant is None
    [verdict] = verify_bounds([summary]).verdicts
    assert verdict.status == "unverifiable" and verdict.tightest_violated is None


def test_an_incomplete_cell_fails_a_bound_its_periods_reach(monkeypatch):
    summary = _overdue_cell(monkeypatch, 3)
    assert summary.compliant is False
    [verdict] = verify_bounds([summary]).verdicts
    assert verdict.status == "fail"
    assert verdict.tightest_violated == ("sync theorem bound", 2.5)
    assert "[FAIL]" in verdict.line() and "incomplete run" in verdict.line()


def test_a_cell_records_the_budget_its_engine_ran_under():
    # Sync engines run whole periods (or slots); async runs to the budget's time.
    lockstep = run_cell(parse_config(minimal_config(budget=2.9)), 0.5, 0)
    assert lockstep.budget == 2 and type(lockstep.budget) is int
    timed = run_cell(parse_config(async_config(budget=2.5)), 0.5, 0)
    assert timed.budget == 2.5 and type(timed.budget) is float


@pytest.mark.parametrize("cell, compliant", [("complete", True), ("incomplete", None),
                                             ("overdue", False), ("failed", None),
                                             ("write-failed", True)])
def test_run_cell_takes_compliant_from_the_verify_judge(monkeypatch, tmp_path, cell, compliant):
    if cell == "overdue":
        summary = _overdue_cell(monkeypatch, 3)
    elif cell == "write-failed":
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("occupied")
        summary = run_cell(parse_config(minimal_config()), 0.5, 0, out_dir=blocker)
    else:
        document = {"complete": minimal_config(),
                    "incomplete": minimal_config(problem={**minimal_config()["problem"],
                                                          "gap": 30.0}, budget=2),
                    "failed": minimal_config(method={"kind": "accel"})}[cell]
        summary = run_cell(parse_config(document), 0.5, 0, out_dir=tmp_path)
    assert summary.compliant is compliant
    [verdict] = verify_bounds([summary]).verdicts
    if cell == "write-failed":
        # verify labels a cell with an error as failed; compliant is the verdict
        # on the run's own measurements, given before the write error was attached.
        assert verdict.status == "unverifiable" and "(cell failed: trace write" in verdict.line()
        [verdict] = verify_bounds([dataclasses.replace(summary, error=None)]).verdicts
    assert {"pass": True, "fail": False}.get(verdict.status) is compliant


def test_verify_report_summary_line(tmp_path):
    config = parse_config(minimal_config())
    summaries = run_grid(config, out_dir=tmp_path)
    lines = verify_bounds(summaries).lines()
    assert lines[-1] == "2 pass, 0 fail, 0 unverifiable"


# ---------------------------------------------------------------------------
# Rate fitting
# ---------------------------------------------------------------------------


def reference_fit(xs, ys):
    design = np.column_stack([xs, np.ones(len(xs))])
    coeffs, *_ = np.linalg.lstsq(design, np.asarray(ys, dtype=float), rcond=None)
    predicted = design @ coeffs
    ss_res = float(np.sum((np.asarray(ys) - predicted) ** 2))
    ss_tot = float(np.sum((np.asarray(ys) - np.mean(ys)) ** 2))
    return float(coeffs[0]), float(coeffs[1]), 1.0 - ss_res / ss_tot


def d1_offset_grid(tmp_path):
    """Sharp-growth cells whose gap is not a multiple of the top-rung
    accuracy, so the ladder (not a single lucky epoch) does the refining
    and the measured time carries the log(1/eps) signal."""

    document = minimal_config(eps=[2.0 ** -k for k in range(1, 11)])
    document["problem"]["gap"] = 3.7
    return run_grid(parse_config(document), out_dir=tmp_path)


def test_fit_rate_log_model_matches_reference_and_is_tight(tmp_path):
    summaries = d1_offset_grid(tmp_path)
    result = fit_rate(summaries, "log")
    ks = [np.log2(1.0 / summary.eps) for summary in summaries]
    slope, intercept, r_squared = reference_fit(ks, [s.time_to_eps for s in summaries])
    assert result.model == "log" and result.field == "time_to_eps"
    assert result.exponent is None
    assert result.n_points == 10
    assert result.slope == pytest.approx(slope, abs=1e-12)
    assert result.intercept == pytest.approx(intercept, abs=1e-12)
    assert result.r_squared == pytest.approx(r_squared, abs=1e-12)
    assert result.r_squared >= 0.9


def test_fit_rate_accel_measured_times_follow_log_shape(tmp_path):
    document = {
        "problem": {"family": "least-squares", "dimension": 20, "num_rows": 30,
                    "gap": 30.0, "sigma_range": [1.0, 10.0]},
        "method": "accel",
        "scheme": "sync-lockstep",
        "eps": [2.0 ** -k for k in range(1, 11)],
        "seed": 2,
    }
    summaries = run_grid(parse_config(document), out_dir=tmp_path)
    assert all(summary.compliant is True for summary in summaries)
    assert fit_rate(summaries, "log").r_squared >= 0.9


def test_fit_rate_power_model_dominates_on_degree_four_bounds(tmp_path):
    document = minimal_config(eps=[2.0 ** -k for k in range(1, 11)])
    document["problem"].update({"dimension": 2, "d": 4.0, "gap": 3.3})
    summaries = run_grid(parse_config(document), out_dir=tmp_path)
    power = fit_rate(summaries, "power", field="bound_theorem")
    log = fit_rate(summaries, "log", field="bound_theorem")
    assert power.exponent == pytest.approx(1.5)  # 2 * (1 - 1/4)
    assert power.r_squared > log.r_squared
    assert power.r_squared >= 0.99

    xs = [summary.eps ** -1.5 for summary in summaries]
    slope, intercept, r_squared = reference_fit(xs, [s.bound_theorem for s in summaries])
    assert power.slope == pytest.approx(slope, rel=1e-12)
    assert power.r_squared == pytest.approx(r_squared, abs=1e-12)


def test_fit_rate_degenerate_grid_raises():
    summaries = [sample_summary(eps=2.0 ** -k, time_to_eps=3.0) for k in range(1, 6)]
    with pytest.raises(ParameterError, match="degenerate"):
        fit_rate(summaries, "log")


def test_fit_rate_needs_four_distinct_eps():
    summaries = [sample_summary(eps=2.0 ** -k) for k in range(1, 4)]
    with pytest.raises(ParameterError, match="4 distinct eps"):
        fit_rate(summaries, "log")
    # None values in the chosen field do not count toward the minimum.
    starved = [sample_summary(eps=2.0 ** -k, time_to_eps=None) for k in range(1, 9)]
    with pytest.raises(ParameterError, match="4 distinct eps"):
        fit_rate(starved, "log")


def test_fit_rate_rejects_unknown_model_and_field():
    summaries = [sample_summary(eps=2.0 ** -k, time_to_eps=float(k)) for k in range(1, 6)]
    with pytest.raises(ParameterError, match="fit model"):
        fit_rate(summaries, "cubic")
    with pytest.raises(ParameterError, match="fit field"):
        fit_rate(summaries, "log", field="messages_total")


def test_fit_rate_power_model_needs_usable_degree():
    flat = [sample_summary(eps=2.0 ** -k, time_to_eps=float(k), growth_d=1.0)
            for k in range(1, 6)]
    with pytest.raises(ParameterError, match="log model"):
        fit_rate(flat, "power")  # exponent 2(1 - 1/1) = 0
    mixed = [sample_summary(eps=2.0 ** -k, time_to_eps=float(k),
                            growth_d=2.0 + (k % 2)) for k in range(1, 6)]
    with pytest.raises(ParameterError, match="growth degree"):
        fit_rate(mixed, "power")


def test_fit_rate_other_fields(tmp_path):
    summaries = d1_offset_grid(tmp_path)
    calls = fit_rate(summaries, "log", field="oracle_calls_total")
    assert calls.field == "oracle_calls_total"
    assert calls.slope > 0  # deeper ladders cost more oracle calls
    corollary = fit_rate(summaries, "log", field="bound_corollary")
    assert corollary.r_squared >= 0.9  # the guarantee itself is log-shaped


def test_fit_result_line_is_readable():
    result = FitResult(model="log", slope=1.5, intercept=2.0, r_squared=0.975,
                       exponent=None, n_points=10)
    line = result.line()
    assert "log model" in line and "R^2 = 0.9750" in line and "10 points" in line


def test_parse_eps_must_be_a_normal_float():
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_config(eps=[0.5, 5e-324]))
    assert err.value.path == "eps[1]"
    assert parse_config(minimal_config(eps=[2.2250738585072014e-308])).eps == (
        2.2250738585072014e-308,)


# ---------------------------------------------------------------------------
# Accel's smoothness constant
# ---------------------------------------------------------------------------


def test_accel_corollary_uses_the_L_the_method_ran_with(tmp_path):
    # The metadata's L is about 4; the method runs with 40,000, so its epochs
    # are long, and a corollary evaluated with the metadata's L is too small.
    from restartfom.bounds import bound_cor_accel

    document = {
        "problem": {"family": "least-squares", "dimension": 6, "num_rows": 9, "gap": 30.0},
        "method": {"kind": "accel", "L": 40000},
        "scheme": "sync-lockstep",
        "eps": [2.0 ** -k for k in range(2, 9)],
        "seed": 0,
    }
    config = parse_config(document)
    summaries = run_grid(config, out_dir=tmp_path)
    problem, x0 = build_problem(config, seed=0)
    assert problem.metadata.L < 10.0
    metadata = dataclasses.replace(problem.metadata, L=40000.0,
                                   dist_x0_to_opt=float(problem.distance_to_opt(x0)))
    for summary in summaries:
        assert summary.compliant is True
        expected = bound_cor_accel(metadata, summary.f_x0, summary.eps, summary.N).total
        assert summary.bound_corollary == expected
        assert summary.bound_reports["corollary"]["total"] == expected
    assert verify_bounds(summaries).failed == 0


@pytest.mark.parametrize("problem, method", [
    pytest.param({"family": "least-squares", "dimension": 3, "num_rows": 5, "gap": 4.0},
                 "subgrad", id="subgrad-least-squares"),
    pytest.param({"family": "norm-power", "dimension": 2, "mu": 1.0, "d": 1.5, "gap": 3.0},
                 {"kind": "univ", "L0": 1.0}, id="univ"),
])
def test_lockstep_cell_gets_a_finite_sync_theorem_bound_and_verifies(tmp_path, problem, method):
    config = parse_config(minimal_config(problem=problem, method=method, seed=0))
    summaries = run_grid(config, out_dir=tmp_path)
    for summary in summaries:
        assert summary.error is None and summary.complete
        assert math.isfinite(summary.bound_theorem)
        assert summary.bound_reports["theorem"]["total"] == summary.bound_theorem
        assert summary.compliant is True
    assert verify_bounds(summaries).failed == 0


def test_resolve_L_prefers_the_method_spec_over_the_metadata():
    from restartfom.methods import MethodSpec, resolve_L

    config = parse_config(minimal_config(problem={"family": "least-squares", "dimension": 6,
                                                  "num_rows": 9, "gap": 30.0}))
    problem, _ = build_problem(config, seed=0)
    assert resolve_L(MethodSpec("accel", L=7.0), problem) == 7.0
    assert resolve_L(MethodSpec("accel"), problem) == problem.metadata.L


# ---------------------------------------------------------------------------
# Checked summary records and range rules found at parse time
# ---------------------------------------------------------------------------


def test_verify_bounds_checks_the_type_of_a_json_record(tmp_path):
    config = parse_config(minimal_config(eps=[0.5]))
    run_grid(config, out_dir=tmp_path)
    with open(tmp_path / "summaries.json") as handle:
        records = json.load(handle)["summaries"]
    records[0]["time_to_eps"] = "abc"
    with pytest.raises(ConfigError) as err:
        verify_bounds([RunSummary.from_json(record, f"summaries[{index}]")
                       for index, record in enumerate(records)])
    assert err.value.path == "summaries[0].time_to_eps"


def test_summary_from_json_refuses_a_non_object():
    with pytest.raises(ConfigError) as err:
        RunSummary.from_json([1, 2], "records[3]")
    assert err.value.path == "records[3]"


def test_piecewise_max_needs_more_pieces_than_dimensions():
    problem = {"family": "piecewise-max", "dimension": 3, "num_pieces": 3, "gap": 2.0}
    with pytest.raises(ConfigError) as err:
        parse_config(minimal_config(problem=problem))
    assert err.value.path == "problem.num_pieces"
    config = parse_config(minimal_config(problem={**problem, "num_pieces": 4}))
    assert config.problem.num_pieces == 4

