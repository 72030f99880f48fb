"""Command-line interface: subcommands, flag precedence, exit codes."""

import json
import math
import subprocess
import sys

import pytest

from restartfom.cli import main
from restartfom.harness import OUTPUT_DIR_ENV, load_summaries


def write_config(tmp_path, name="config.json", **overrides):
    document = {
        "problem": {"family": "norm-power", "dimension": 1, "mu": 1.0,
                    "d": 1.0, "gap": 3.0},
        "method": "subgrad",
        "scheme": "sync-lockstep",
        "eps": [0.5, 0.25],
    }
    document.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return path


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)


def test_grid_writes_artifacts_and_reports(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["grid", "--config", str(config), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert f"wrote 2 cells to {out}" in captured.out
    assert "[pass]" in captured.out
    assert "2 pass, 0 fail, 0 unverifiable" in captured.out
    assert (out / "summary.csv").exists()
    assert (out / "summaries.json").exists()


def test_run_prints_single_cell_summary(tmp_path, capsys):
    config = write_config(tmp_path, eps=[0.5])
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["eps"] == 0.5
    assert record["compliant"] is True
    assert (out / record["trace_path"]).exists()


def test_run_writes_a_one_cell_grid_that_verify_reads(tmp_path, capsys):
    config = write_config(tmp_path, eps=[0.5])
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    assert main(["grid", "--config", str(config), "--out", str(tmp_path / "grid")]) == 0
    capsys.readouterr()
    assert main(["verify", "--out", str(tmp_path / "run")]) == 0
    assert "1 pass, 0 fail, 0 unverifiable" in capsys.readouterr().out
    files = sorted(path.name for path in (tmp_path / "grid").iterdir())
    assert files == ["summaries.json", "summary.csv", "trace-eps0.5-seed0.jsonl"]
    for name in files:
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "grid" / name).read_bytes()


def test_run_into_a_grid_directory_replaces_its_records(tmp_path, capsys):
    # Like grid, run rewrites summaries.json and summary.csv; other cells' traces stay.
    out = tmp_path / "out"
    assert main(["grid", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
    single = write_config(tmp_path, name="single.json", eps=[0.25])
    assert main(["run", "--config", str(single), "--out", str(out)]) == 0
    assert [summary.eps for summary in load_summaries(out)] == [0.25]
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 0
    assert "1 pass, 0 fail, 0 unverifiable" in capsys.readouterr().out
    assert sorted(path.name for path in out.glob("trace-*")) == [
        "trace-eps0.25-seed0.jsonl", "trace-eps0.5-seed0.jsonl"]


def test_run_requires_single_eps(tmp_path, capsys):
    config = write_config(tmp_path)  # two accuracies
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "exactly one accuracy" in capsys.readouterr().err


def test_run_refuses_several_seeds_unless_seed_selects_one(tmp_path, capsys):
    config = write_config(tmp_path, eps=[0.5], seeds=[1, 2, 3])
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert "--seed selects one" in capsys.readouterr().err
    assert not list(out.glob("trace-*"))
    assert main(["run", "--config", str(config), "--out", str(out), "--seed", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 2
    assert [path.name for path in out.glob("trace-*")] == ["trace-eps0.5-seed2.jsonl"]


def test_run_reports_cell_failure(tmp_path, capsys):
    # accel on the d=1 family has no curvature constant to work with.
    config = write_config(tmp_path, eps=[0.5], method={"kind": "accel"})
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "cell failed" in capsys.readouterr().err


def test_verify_reads_back_stored_summaries(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    main(["grid", "--config", str(config), "--out", str(out)])
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 0
    assert "2 pass, 0 fail" in capsys.readouterr().out


def test_verify_flags_injected_violation(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    main(["grid", "--config", str(config), "--out", str(out)])
    store = out / "summaries.json"
    document = json.loads(store.read_text())
    document["summaries"][0]["bound_theorem"] = 0.5  # below any measured time
    store.write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_output_dir_env_var_is_honored(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "from-env"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(out))
    assert main(["grid", "--config", str(config)]) == 0
    assert (out / "summary.csv").exists()
    capsys.readouterr()
    assert main(["verify"]) == 0  # no flags: same env-resolved directory


def test_out_flag_beats_env_var(tmp_path, monkeypatch):
    config = write_config(tmp_path)
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "ignored"))
    explicit = tmp_path / "explicit"
    main(["grid", "--config", str(config), "--out", str(explicit)])
    assert (explicit / "summary.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_seed_flag_replaces_config_seeds(tmp_path):
    config = write_config(tmp_path, seeds=[1, 2, 3])
    out = tmp_path / "out"
    main(["grid", "--config", str(config), "--out", str(out), "--seed", "9"])
    document = json.loads((out / "summaries.json").read_text())
    assert [cell["seed"] for cell in document["summaries"]] == [9, 9]


def test_budget_flag_limits_runs(tmp_path):
    config = write_config(tmp_path)
    document = json.loads(config.read_text())
    document["problem"]["gap"] = 30.0
    config.write_text(json.dumps(document))
    out = tmp_path / "out"
    main(["grid", "--config", str(config), "--out", str(out), "--budget", "2"])
    document = json.loads((out / "summaries.json").read_text())
    assert all(cell["complete"] is False for cell in document["summaries"])


def test_fit_command_prints_model_line(tmp_path, capsys):
    config = write_config(tmp_path, eps=[2.0 ** -k for k in range(1, 7)])
    document = json.loads(config.read_text())
    document["problem"]["gap"] = 3.7  # measured times carry the log signal
    config.write_text(json.dumps(document))
    out = tmp_path / "out"
    main(["grid", "--config", str(config), "--out", str(out)])
    capsys.readouterr()
    assert main(["fit", "log", "--out", str(out)]) == 0
    assert "log model: time_to_eps" in capsys.readouterr().out
    assert main(["fit", "log", "--field", "bound_corollary", "--out", str(out)]) == 0
    assert "bound_corollary" in capsys.readouterr().out


def test_fit_command_rejects_degenerate_grid(tmp_path, capsys):
    config = write_config(tmp_path, eps=[0.5, 0.25, 0.125])
    out = tmp_path / "out"
    main(["grid", "--config", str(config), "--out", str(out)])
    capsys.readouterr()
    assert main(["fit", "log", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err


def test_trace_dump_prints_events_and_summary(tmp_path, capsys):
    config = write_config(tmp_path, eps=[0.5])
    out = tmp_path / "out"
    main(["run", "--config", str(config), "--out", str(out)])
    record = json.loads(capsys.readouterr().out)
    assert main(["trace-dump", str(out / record["trace_path"])]) == 0
    captured = capsys.readouterr().out
    assert "t=0.000000" in captured
    assert "restart" in captured
    assert "summary: {" in captured


def test_config_error_paths_exit_two(tmp_path, capsys):
    assert main(["grid"]) == 2  # no --config
    assert "requires a configuration file" in capsys.readouterr().err
    assert main(["grid", "--config", str(tmp_path / "missing.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["grid", "--config", str(bad)]) == 2
    config = write_config(tmp_path)
    assert main(["grid", "--config", str(config), "--seed", "-1",
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["grid", "--config", str(config), "--budget", "0",
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["trace-dump", str(tmp_path / "missing.jsonl")]) == 2


def test_module_entry_point_runs_in_subprocess(tmp_path):
    config = write_config(tmp_path, eps=[0.5])
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "restartfom.cli", "grid",
         "--config", str(config), "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "wrote 1 cells" in result.stdout
    [summary] = load_summaries(out)
    assert summary.compliant is True


def test_subnormal_eps_is_a_config_error(tmp_path, capsys):
    config = write_config(tmp_path, eps=[5e-324])
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "error: eps[0]:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("record", [{}, [1, 2]], ids=["empty-object", "list"])
@pytest.mark.parametrize("command", [["verify"], ["fit", "log"]])
def test_malformed_summary_record_exits_two(tmp_path, capsys, record, command):
    config = write_config(tmp_path, eps=[0.5, 0.25, 0.125, 0.0625])
    out = tmp_path / "out"
    main(["grid", "--config", str(config), "--out", str(out)])
    document = json.loads((out / "summaries.json").read_text())
    document["summaries"][1] = record
    (out / "summaries.json").write_text(json.dumps(document))
    capsys.readouterr()
    assert main(command + ["--out", str(out)]) == 2
    assert "summaries.json:summaries[1]:" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("time_to_eps", "abc"), ("N", "3"), ("oracle_calls_total", True),
    ("complete", 1), ("eps", None), ("restarts_per_copy", []),
])
@pytest.mark.parametrize("command", [["verify"], ["fit", "log"]])
def test_summary_field_of_the_wrong_type_exits_two(tmp_path, capsys, field, value, command):
    config = write_config(tmp_path, eps=[0.5, 0.25, 0.125, 0.0625])
    out = tmp_path / "out"
    main(["grid", "--config", str(config), "--out", str(out)])
    document = json.loads((out / "summaries.json").read_text())
    document["summaries"][2][field] = value
    (out / "summaries.json").write_text(json.dumps(document))
    capsys.readouterr()
    assert main(command + ["--out", str(out)]) == 2
    assert f"summaries.json:summaries[2].{field}: expected" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["time_to_eps", "eps", "bound_theorem", "f_x0"])
@pytest.mark.parametrize("command", [["verify"], ["fit", "log"]])
def test_nan_in_a_summary_exits_two(tmp_path, capsys, field, command):
    config = write_config(tmp_path, eps=[0.5, 0.25, 0.125, 0.0625])
    out = tmp_path / "out"
    main(["grid", "--config", str(config), "--out", str(out)])
    document = json.loads((out / "summaries.json").read_text())
    document["summaries"][1][field] = math.nan
    (out / "summaries.json").write_text(json.dumps(document))  # writes a bare NaN
    capsys.readouterr()
    assert main(command + ["--out", str(out)]) == 2
    assert f"summaries.json:summaries[1].{field}: NaN" in capsys.readouterr().err


def test_infinite_time_in_a_summary_fails_its_bounds(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    main(["grid", "--config", str(config), "--out", str(out)])
    document = json.loads((out / "summaries.json").read_text())
    document["summaries"][1]["time_to_eps"] = math.inf
    (out / "summaries.json").write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 1
    assert "[FAIL] eps=0.25 seed=0: inf exceeds" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["trace-dump", "t.jsonl", "--config", "c.json"],
    ["trace-dump", "t.jsonl", "--out", "o"],
    ["trace-dump", "t.jsonl", "--seed", "1"],
    ["trace-dump", "t.jsonl", "--budget", "5"],
    ["verify", "--seed", "1"],
    ["verify", "--budget", "5"],
    ["fit", "log", "--seed", "1"],
    ["fit", "log", "--budget", "5"],
])
def test_commands_reject_flags_they_would_ignore(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, where", [
    ("seed", "abc", "delay.seed"),
    ("seed", 1.5, "delay.seed"),
    ("seed", True, "delay.seed"),
    ("tau_transit", True, "delay.tau_transit"),
    ("seed", -1, "delay"),
    # The single-server transit bound is (N + 2) * service_time, with no scale
    # factor: one below 1 would make it unsound.
    ("tau_factor", 1.0, "delay.tau_factor"),
])
def test_a_bad_delay_field_exits_2_at_its_location(tmp_path, capsys, field, value, where):
    delay = {"transit_kind": "deterministic", "tau_transit": 1.0,
             "pause_kind": "deterministic", "tau_pause": 2.0, field: value}
    config = write_config(tmp_path, scheme="async", delay=delay)
    assert main(["grid", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {where}: " in capsys.readouterr().err


@pytest.mark.parametrize("method", [{"kind": "accel", "L": math.inf},
                                    {"kind": "univ", "L0": math.inf}])
def test_an_infinite_method_constant_exits_2(tmp_path, capsys, method):
    config = write_config(tmp_path, method=method)
    assert "Infinity" in config.read_text()
    assert main(["grid", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "error: method" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, where", [
    ({"problem": {"family": "norm-power", "dimension": 1, "mu": 1.0, "d": 1.0,
                  "gap": 10 ** 400}}, "error: problem.gap: "),
    ({"problem": {"family": "norm-power", "dimension": 1, "mu": 1.0, "d": 1.0,
                  "gap": 3.0, "center": [10 ** 400]}}, "error: problem.center: "),
    ({"method": {"kind": "accel", "L": 10 ** 400}}, "error: method: "),
    ({"scheme": "async", "delay": {"transit_kind": "deterministic", "tau_transit": 1.0,
                                   "pause_kind": "deterministic", "tau_pause": 10 ** 400}},
     "error: delay: "),
    ({"N": 2000}, "ParameterError: N = 2000"),
], ids=["gap", "center", "L", "tau_pause", "N"])
def test_a_number_too_large_for_a_float_exits_2_without_a_traceback(
        tmp_path, capsys, overrides, where):
    config = write_config(tmp_path, **overrides)
    assert main(["grid", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert where in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--budget", "0")])
def test_a_flag_that_breaks_a_config_rule_exits_2_at_the_flag(tmp_path, capsys, flag, value):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["grid", "--config", str(config), "--out", str(out), flag, value]) == 2
    assert f"error: {flag}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("problem, method, where", [
    ({"family": "least-squares", "dimension": 3, "num_rows": 4, "sigma_range": [1, 1e200],
      "gap": 1}, "subgrad", "problem.sigma_range"),
    ({"family": "norm-power", "dimension": 2, "mu": 1.7e308, "d": 2, "gap": 1}, "subgrad",
     "problem.mu"),
    ({"family": "norm-power", "dimension": 2, "mu": 1.7e308, "d": 3, "gap": 1}, "subgrad",
     "problem.mu"),
    ({"family": "norm-power", "dimension": 2, "mu": 1.7e308, "d": 2, "gap": 1}, "accel",
     "problem.mu"),
], ids=["least-squares-L", "norm-power-d2-subgrad", "norm-power-d3-subgrad",
        "norm-power-accel"])
def test_a_constant_beyond_the_float_range_exits_2_at_its_field(tmp_path, capsys, problem,
                                                                method, where):
    # Once each cell ran and warned: hi**2 and mu * d are not floats.
    config = write_config(tmp_path, problem=problem, method=method, eps=[0.5])
    out = tmp_path / "out"
    assert main(["grid", "--config", str(config), "--out", str(out)]) == 2
    assert f"error: {where}: " in capsys.readouterr().err
    assert not out.exists()


def test_too_few_pieces_exit_2_at_num_pieces(tmp_path, capsys):
    config = write_config(tmp_path, problem={"family": "piecewise-max", "dimension": 3,
                                             "num_pieces": 2, "gap": 2.0})
    assert main(["grid", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "error: problem.num_pieces: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_grid_exits_2_when_a_cell_failed_after_writing_everything(tmp_path, capsys):
    # Neither the spec nor the piecewise-max metadata gives accel an L.
    config = write_config(tmp_path, method="accel",
                          problem={"family": "piecewise-max", "dimension": 3,
                                   "num_pieces": 8, "gap": 2.0})
    out = tmp_path / "out"
    assert main(["grid", "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "0 pass, 0 fail, 2 unverifiable" in captured.out
    assert captured.err.count("ConfigError: accel needs a smoothness constant L") == 2
    assert (out / "summary.csv").exists() and (out / "summaries.json").exists()


def test_verify_reports_failed_cells_and_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, method="accel",
                          problem={"family": "piecewise-max", "dimension": 3,
                                   "num_pieces": 8, "gap": 2.0})
    out = tmp_path / "out"
    assert main(["grid", "--config", str(config), "--out", str(out)]) == 2
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        f"[----] eps={eps!r} seed=0: unverifiable (cell failed: ConfigError: accel needs "
        "a smoothness constant L (in the method spec or the problem metadata))"
        for eps in (0.5, 0.25)]
    assert lines[-1] == "0 pass, 0 fail, 2 unverifiable"


def test_oversized_integers_outside_the_config_fields_exit_2(tmp_path, capsys):
    config = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["grid", "--config", str(config), "--out", out,
                 "--budget", "1" + "0" * 400]) == 2
    assert "error: --budget: " in capsys.readouterr().err
    # Longer than the interpreter converts from a decimal string.
    config.write_text(config.read_text().replace('"gap": 3.0', '"gap": 1' + "0" * 5000))
    assert main(["grid", "--config", str(config), "--out", out]) == 2
    assert f"error: {config}: not valid JSON: " in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [('{"problem": ', "not valid JSON: "),
                                           ("[1, 2]", "config must be a JSON object")])
def test_a_config_that_is_no_json_object_exits_2_at_its_path(tmp_path, capsys, text, message):
    config = tmp_path / "bad.json"
    config.write_text(text)
    assert main(["grid", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {config}: {message}" in capsys.readouterr().err


def test_a_config_that_is_not_utf8_exits_2_at_its_path(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_bytes(b"\xff\xfe")
    assert main(["grid", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {config}: cannot read config: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["verify"], ["fit", "log"]])
def test_summaries_that_are_not_utf8_exit_2_at_their_path(tmp_path, capsys, command):
    out = tmp_path / "out"
    out.mkdir()
    (out / "summaries.json").write_bytes(b'{"summaries": [\xff]}')
    assert main(command + ["--out", str(out)]) == 2
    assert f"error: {out / 'summaries.json'}: not a UTF-8 JSON document: " in (
        capsys.readouterr().err)


def _refuse_constant(name):
    raise ValueError(f"{name} in summaries.json")


def test_a_guarantee_that_overflows_leaves_its_cell_unverifiable(tmp_path, capsys):
    # At eps 1e-300 and gap 1e10 the subgradient epoch budget exceeds the float range.
    config = write_config(
        tmp_path, problem={"family": "norm-power", "dimension": 2, "mu": 1.0, "d": 2.0,
                           "gap": 1e10},
        eps=[1e-300], budget=3)
    out = tmp_path / "out"
    assert main(["grid", "--config", str(config), "--out", str(out)]) == 0
    assert "0 pass, 0 fail, 1 unverifiable" in capsys.readouterr().out
    (record,) = json.loads((out / "summaries.json").read_text(),
                           parse_constant=_refuse_constant)["summaries"]
    assert record["bound_theorem"] is None and record["bound_corollary"] is None
    assert record["error"] is None
    assert main(["verify", "--out", str(out)]) == 0


@pytest.mark.parametrize("problem, method, eps", [
    # delta**p underflows to 0 while (L/eps_bar)**p overflows: the epoch budget is nan.
    pytest.param({"family": "least-squares", "dimension": 3, "num_rows": 4,
                  "sigma_range": [1e-150, 1e150], "gap": 1.0},
                 {"kind": "accel", "L": 1e300}, 1e-300, id="nan-epoch-budget"),
    # The distance to the optimum squares beyond the float range: the totals are inf.
    pytest.param({"family": "piecewise-max", "dimension": 4, "num_pieces": 12, "gap": 1e300},
                 "subgrad", 0.5, id="infinite-distance"),
])
def test_a_guarantee_beyond_the_float_range_leaves_its_cell_unverifiable(
        tmp_path, capsys, problem, method, eps):
    config = write_config(tmp_path, problem=problem, method=method, eps=[eps], budget=3)
    out = tmp_path / "out"
    assert main(["grid", "--config", str(config), "--out", str(out)]) == 0
    assert "0 pass, 0 fail, 1 unverifiable" in capsys.readouterr().out
    (record,) = json.loads((out / "summaries.json").read_text(),
                           parse_constant=_refuse_constant)["summaries"]
    assert record["error"] is None and record["compliant"] is None
    assert record["bound_theorem"] is None
    assert main(["verify", "--out", str(out)]) == 0


def test_a_sequential_theorem_total_that_overflows_is_absent(tmp_path, capsys):
    # The theorem total 8.1e307 is finite; N + 2 = 3 slots a period put it beyond the range.
    config = write_config(
        tmp_path, problem={"family": "norm-power", "dimension": 2, "mu": 1.0, "d": 3.0,
                           "gap": 3e153},
        scheme="sync-sequential", eps=[0.5], budget=2)
    out = tmp_path / "out"
    assert main(["grid", "--config", str(config), "--out", str(out)]) == 0
    assert "0 pass, 0 fail, 1 unverifiable" in capsys.readouterr().out
    (record,) = json.loads((out / "summaries.json").read_text(),
                           parse_constant=_refuse_constant)["summaries"]
    total = record["bound_reports"]["theorem"]["total"]
    assert record["N"] == 1 and math.isfinite(total) and total * 3 == math.inf
    assert record["bound_theorem"] is None and record["compliant"] is None
    header, row = (out / "summary.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["bound_theorem"] == ""
    for column, text in cells.items():
        if text and column not in ("scheme", "method"):
            json.loads(text, parse_constant=_refuse_constant)


def _overdue_record(**fields) -> dict:
    # Budget 3 ran past a 2.5-period guarantee without reaching eps.
    record = {"eps": 0.5, "N": 1, "n_bar": None, "scheme": "sync-lockstep",
              "method": "subgrad", "time_to_eps": None, "oracle_calls_total": 9,
              "bound_theorem": 2.5, "bound_corollary": None, "compliant": False, "seed": 0,
              "complete": False, "messages_total": 0, "budget": 3}
    record.update(fields)
    return record


@pytest.mark.parametrize("compliant", [False, None, True])
def test_verify_fails_an_overdue_incomplete_cell_whatever_its_stored_verdict(
        tmp_path, capsys, compliant):
    (tmp_path / "summaries.json").write_text(
        json.dumps({"summaries": [_overdue_record(compliant=compliant)]}))
    assert main(["verify", "--out", str(tmp_path)]) == 1
    assert ("[FAIL] eps=0.5 seed=0: incomplete run exceeds sync theorem bound = 2.5"
            in capsys.readouterr().out)


def test_a_record_written_without_a_budget_leaves_an_incomplete_cell_unverifiable(
        tmp_path, capsys):
    record = _overdue_record()
    del record["budget"]
    (tmp_path / "summaries.json").write_text(json.dumps({"summaries": [record]}))
    assert load_summaries(tmp_path)[0].budget is None
    assert main(["verify", "--out", str(tmp_path)]) == 0
    assert ("[----] eps=0.5 seed=0: unverifiable (incomplete run, no budget recorded)"
            in capsys.readouterr().out)


def test_verify_names_the_budget_of_an_incomplete_cell_below_its_bounds(tmp_path, capsys):
    config = write_config(
        tmp_path, problem={"family": "norm-power", "dimension": 3, "mu": 1.0, "d": 1.0,
                           "gap": 30.0},
        eps=[2.0 ** -6], budget=5)
    out = tmp_path / "out"
    assert main(["grid", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    [summary] = load_summaries(out)
    assert summary.bound_theorem == summary.bound_corollary == 1507.0
    assert main(["verify", "--out", str(out)]) == 0
    assert ("[----] eps=0.015625 seed=0: unverifiable (incomplete run, budget 5 is below "
            "every bound)" in capsys.readouterr().out)


def test_a_transit_bound_beyond_the_float_range_is_a_cell_error_without_a_trace(
        tmp_path, capsys):
    # (N + 2) * service_time is inf, so the trace's summary line is no JSON.
    config = write_config(
        tmp_path, problem={"family": "norm-power", "dimension": 2, "mu": 1.0, "d": 2.0,
                           "gap": 30.0},
        scheme="async", eps=[0.25],
        delay={"transit_kind": "single-server", "service_time": 1e308})
    out = tmp_path / "out"
    assert main(["grid", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "trace write failed" in err and "Traceback" not in err
    assert not list(out.glob("trace-*"))
    (record,) = json.loads((out / "summaries.json").read_text(),
                           parse_constant=_refuse_constant)["summaries"]
    assert record["trace_path"] is None and "trace write failed" in record["error"]
    assert main(["verify", "--out", str(out)]) == 2
