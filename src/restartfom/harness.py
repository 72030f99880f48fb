"""Experiment plumbing: configs, grids, bound verification, rate fits, export.

A configuration document (JSON object or the equivalent dict) names a problem
family, a method, a scheme, an eps grid, and the run's seeds and budget.  The
grid runner executes one simulation per (eps, seed) cell, evaluates every
guarantee the instance's metadata supports, and writes three artifacts into
the output directory: one JSONL trace per cell, ``summary.csv`` with the fixed
column set, and ``summaries.json`` with the full per-cell records.
"""
from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import os
import types
import typing
from pathlib import Path

import numpy as np

from restartfom.async_scheme import DelayModel, run_async
from restartfom.bounds import (
    EPS_MIN,
    BoundReport,
    bound_async_theorem,
    bound_cor_accel,
    bound_cor_subgrad,
    bound_cor_univ,
    bound_sync_theorem,
    default_N,
    k_accel,
    k_subgrad,
    k_univ,
    t_univ,
)
from restartfom.errors import (
    ConfigError,
    NonFiniteValueError,
    ParameterError,
    RestartFomError,
    UnsupportedQueryError,
)
from restartfom.methods import MethodSpec, resolve_L
from restartfom.problems import PROBLEM_FAMILIES, ProblemInstance, ProblemSpec, finite_float
from restartfom.sync_scheme import DEFAULT_BUDGET, run_sync

SCHEMES = ("sync-lockstep", "sync-sequential", "async")

CSV_COLUMNS = (
    "eps",
    "N",
    "n_bar",
    "scheme",
    "method",
    "time_to_eps",
    "oracle_calls_total",
    "bound_theorem",
    "bound_corollary",
    "compliant",
)

OUTPUT_DIR_ENV = "RESTARTFOM_OUT"

DEFAULT_OUTPUT_DIR = "runs"


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """An experiment description whose rules are checked once at construction,
    and again by ``dataclasses.replace``; a broken one raises
    :class:`ParameterError` naming its field."""

    problem: ProblemSpec
    gap: float  # the start point's f(x0) - f_star; problem.gap in a config document
    method: MethodSpec
    scheme: str
    eps: tuple[float, ...]
    N: int | None = None  # None means: use default_N(eps) per cell
    delay: DelayModel | None = None
    seeds: tuple[int, ...] = (0,)
    budget: float = DEFAULT_BUDGET
    out: str | None = None

    def __post_init__(self):
        gap = _positive(self.gap, "gap")
        if self.scheme not in SCHEMES:
            raise ParameterError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}",
                                 "scheme")
        if not self.eps:
            raise ParameterError("expected a nonempty list of accuracies", "eps")
        for i, value in enumerate(self.eps):
            if not finite_float(value, f"eps[{i}]") >= EPS_MIN:
                raise ParameterError(f"expected at least {EPS_MIN!r}, got {value!r}", f"eps[{i}]")
        eps = tuple(map(float, self.eps))
        if len(set(eps)) != len(eps):
            raise ParameterError("accuracies must be distinct", "eps")
        if self.N is not None and not (type(self.N) is int and self.N >= -1):
            raise ParameterError(f"expected an integer >= -1, got {self.N!r}", "N")
        if (self.delay is None) == (self.scheme == "async"):
            raise ParameterError("the async scheme requires a delay model" if self.delay is None
                                 else "delay model applies only to the async scheme", "delay")
        if not self.seeds:
            raise ParameterError("expected a nonempty list of integers", "seeds")
        for i, seed in enumerate(self.seeds):
            if not (type(seed) is int and seed >= 0):
                raise ParameterError(f"expected an integer >= 0, got {seed!r}", f"seeds[{i}]")
        if len(set(self.seeds)) != len(self.seeds):
            raise ParameterError("seeds must be distinct", "seeds")
        budget = _positive(self.budget, "budget")
        self.__dict__.update(gap=gap, eps=eps, seeds=tuple(self.seeds), budget=budget)


def _positive(value, field: str) -> float:
    number = finite_float(value, field)
    if not number > 0.0:
        raise ParameterError(f"expected a positive number, got {value!r}", field)
    return number


def _join(path: str, key) -> str:
    """The path of ``key`` in the entry at ``path``; the document's root is ``""``."""
    return f"{path}.{key}" if path else str(key)


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(_join(path, key), "missing required key")
    return mapping[key]


def _reject_unknown(mapping: dict, allowed: set[str], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(_join(path, key), "unknown key")


def _has_json_type(value, annotation) -> bool:
    """Whether a JSON value fits a field's annotation: an int is also a
    float, a list fits a generic sequence, and a bool is neither."""
    union = isinstance(annotation, types.UnionType)
    return any(isinstance(value, bool) == (kind is bool)
               and isinstance(value, (int, float) if kind is float
                              else list if typing.get_origin(kind) in (list, tuple) else kind)
               for kind in (typing.get_args(annotation) if union else (annotation,)))


_field_types = functools.cache(typing.get_type_hints)  # resolved per class on first use


def _build_record(cls, record: dict, where: str, at: dict | None = None):
    """The dataclass ``cls`` built from the fields of a JSON object; other
    keys are ignored.  A field whose JSON type does not fit its annotation,
    that holds NaN, or that ``cls`` refuses by name, is a :class:`ConfigError`
    at ``where.field``, or at ``at[field]`` where the document keeps that field
    (or entry) elsewhere; a missing field, or another value ``cls`` refuses or
    cannot hold as a float, one at ``where``."""

    def locate(field: str) -> str:
        return (at or {}).get(field) or _join(where, field)

    annotations = _field_types(cls)
    fields = {name: value for name, value in record.items() if name in annotations}
    for name, value in fields.items():
        if not _has_json_type(value, annotations[name]):
            raise ConfigError(locate(name),
                              f"expected {cls.__dataclass_fields__[name].type}, got {value!r}")
        if isinstance(value, float) and math.isnan(value):
            raise ConfigError(locate(name), "NaN is not a number here")
    try:
        return cls(**fields)
    except ParameterError as exc:
        raise ConfigError(where if exc.field is None else locate(exc.field), str(exc)) from exc
    except (TypeError, OverflowError) as exc:  # TypeError: a field is missing
        raise ConfigError(where, str(exc)) from exc


def _parse_record(cls, document, path: str, expected: str, at: dict | None = None):
    """:func:`_build_record` on a config object, whose unknown keys and
    missing fields are refused at ``path.key``."""
    if not isinstance(document, dict):
        raise ConfigError(path, expected)
    _reject_unknown(document, set(_field_types(cls)), path)
    for field in dataclasses.fields(cls):
        if field.default is field.default_factory is dataclasses.MISSING:
            _require(document, field.name, path)
    return _build_record(cls, document, path, at)


def parse_config(document) -> ExperimentConfig:
    """The :class:`ExperimentConfig` of a configuration document (a dict or
    its JSON text), with defaults applied.

    The document nests the problem's ``gap`` in ``problem`` and allows four
    shorthands: a single ``eps`` number, ``"N": "default"``, one ``seed``,
    and a method given by name.  A refused entry raises ConfigError carrying
    its path.
    """

    if isinstance(document, str):
        try:
            document = json.loads(document)
        except ValueError as exc:  # also an integer literal too long to convert
            raise ConfigError("", f"not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError("", "config must be a JSON object")
    _reject_unknown(document, set(_field_types(ExperimentConfig)) - {"gap"} | {"seed"}, "")

    problem = _require(document, "problem", "")
    expected = "expected an object with a 'family' key"
    if not isinstance(problem, dict):
        raise ConfigError("problem", expected)
    family = _require(problem, "family", "problem")
    names = tuple(PROBLEM_FAMILIES)
    if family not in names:
        raise ConfigError("problem.family", f"unknown family {family!r}, expected one of {names}")
    spec = {name: value for name, value in problem.items() if name not in ("family", "gap")}
    spec = _parse_record(PROBLEM_FAMILIES[family], spec, "problem", expected)
    fields = {**document, "problem": spec, "gap": _require(problem, "gap", "problem")}
    method = _require(document, "method", "")
    fields["method"] = _parse_record(
        MethodSpec, {"kind": method} if isinstance(method, str) else method,
        "method", "expected a method name or an object with a 'kind' key")
    if "delay" in document:
        fields["delay"] = _parse_record(DelayModel, document["delay"], "delay",
                                        "expected an object of delay-model fields")
    if type(document.get("eps")) in (int, float):
        fields["eps"] = [document["eps"]]
    if document.get("N") == "default":
        fields["N"] = None
    at = {"gap": "problem.gap"}
    if "seed" in document:
        if "seeds" in document:
            raise ConfigError("seeds", "give either 'seed' or 'seeds', not both")
        fields["seeds"], at["seeds[0]"] = [fields.pop("seed")], "seed"
    return _parse_record(ExperimentConfig, fields, "", "", at)


def build_problem(config: ExperimentConfig, seed: int) -> tuple[ProblemInstance, np.ndarray]:
    """Materialize the configured problem and its seeded start point."""

    problem = config.problem.build(seed)
    return problem, problem.point_at_gap(config.gap, rng=np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Run summaries
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class RunSummary:
    """One grid cell's measurements next to its evaluated guarantees."""

    eps: float
    N: int
    n_bar: int | None
    scheme: str
    method: str
    time_to_eps: float | None
    oracle_calls_total: int
    bound_theorem: float | None
    bound_corollary: float | None
    compliant: bool | None
    seed: int
    complete: bool
    messages_total: int
    restarts_per_copy: dict = dataclasses.field(default_factory=dict)
    growth_d: float | None = None
    f_x0: float | None = None
    bound_reports: dict = dataclasses.field(default_factory=dict)
    trace_path: str | None = None
    error: str | None = None
    budget: float | None = None  # the engine's: whole periods or slots (sync), time (async)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, record, where: str = "summary") -> "RunSummary":
        """A JSON record, checked as :func:`_build_record` checks it."""
        if not isinstance(record, dict):
            raise ConfigError(where, f"expected an object, got {record!r}")
        return _build_record(cls, record, where)

    def csv_record(self) -> dict:
        return {column: getattr(self, column) for column in CSV_COLUMNS}


def write_summaries_csv(path, summaries) -> None:
    """Write the fixed-column CSV; one row per cell, each cell the JSON
    encoding of its value, except that text stays bare and None is empty."""

    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(CSV_COLUMNS))
        writer.writeheader()
        for summary in summaries:
            writer.writerow({column: "" if value is None else
                             value if isinstance(value, str) else json.dumps(value)
                             for column, value in summary.csv_record().items()})


# ---------------------------------------------------------------------------
# Bound evaluation per cell
# ---------------------------------------------------------------------------

def _epoch_budget(problem: ProblemInstance, spec: MethodSpec, f_x0: float, calls: bool):
    """Per-epoch budget of the configured method: the iteration count
    k(delta, eps_bar), or with ``calls`` the oracle calls the async guarantee
    charges (iterations + 1 for subgrad/accel; the line-search-aware total
    for univ)."""

    metadata = problem.metadata
    if spec.kind == "univ":
        if metadata.M_nu is None or metadata.nu is None:
            raise UnsupportedQueryError("univ bound needs Hölder constants in the metadata")
        M_nu, nu, L0 = metadata.M_nu, metadata.nu, spec.L0
        if calls:
            return lambda delta, eps_bar: float(t_univ(M_nu, nu, delta, eps_bar, L0))
        return lambda delta, eps_bar: float(k_univ(M_nu, nu, delta, eps_bar))
    if spec.kind == "subgrad":
        k, constant = k_subgrad, problem.subgradient_norm_bound(f_x0)
    else:
        k, constant = k_accel, resolve_L(spec, problem)
    if calls:
        return lambda delta, eps_bar: float(k(constant, delta, eps_bar)) + 1.0
    return lambda delta, eps_bar: float(k(constant, delta, eps_bar))


def _report_or_none(bound) -> BoundReport | None:
    """``bound()``, or None when the instance does not support that guarantee
    or its value overflows the float range."""
    try:
        return bound()
    except (UnsupportedQueryError, ParameterError, OverflowError):
        return None


def _cell_bounds(problem: ProblemInstance, x0: np.ndarray, config: ExperimentConfig,
                 spec: MethodSpec, f_x0: float, eps: float, N: int):
    """The (theorem, corollary) reports this instance's metadata supports,
    each a :class:`BoundReport` or None."""

    metadata = dataclasses.replace(problem.metadata,
                                   dist_x0_to_opt=float(problem.distance_to_opt(x0)))
    delay = config.delay
    if config.scheme == "async":
        theorem = _report_or_none(lambda: bound_async_theorem(
            metadata, f_x0, eps, N, delay.effective_tau_transit(N), delay.tau_pause,
            _epoch_budget(problem, spec, f_x0, calls=True)))
    else:
        theorem = _report_or_none(lambda: bound_sync_theorem(
            metadata, f_x0, eps, N, _epoch_budget(problem, spec, f_x0, calls=False)))

    corollary = None
    if config.scheme == "sync-lockstep" and spec.kind == "subgrad":
        corollary = _report_or_none(lambda: bound_cor_subgrad(metadata, f_x0, eps, N))
    elif config.scheme == "sync-lockstep" and spec.kind == "accel":
        corollary = _report_or_none(lambda: bound_cor_accel(
            dataclasses.replace(metadata, L=resolve_L(spec, problem)), f_x0, eps, N))
    elif config.scheme == "async" and spec.kind == "univ":
        corollary = _report_or_none(lambda: bound_cor_univ(
            metadata, f_x0, eps, N, delay.effective_tau_transit(N), delay.tau_pause, spec.L0))
    return theorem, corollary


def _judge(summary: RunSummary) -> tuple[str, tuple[str, float] | None]:
    """A cell's status ("pass", "fail" or "unverifiable") and the tightest
    ``(name, total)`` bound it violates, from its record alone.  A complete
    cell is judged by its time; an incomplete one fails the bounds its
    ``budget`` reaches, and is otherwise unverifiable, as is a failed cell."""

    theorem = "async theorem bound" if summary.scheme == "async" else "sync theorem bound"
    bounds = [(name, total) for name, total in ((theorem, summary.bound_theorem),
                                                (f"{summary.method} corollary bound",
                                                 summary.bound_corollary)) if total is not None]
    timed = summary.complete and summary.time_to_eps is not None
    if summary.error is not None or not timed and summary.budget is None:
        return "unverifiable", None
    violated = [(name, total) for name, total in bounds
                if (summary.time_to_eps > total if timed else summary.budget >= total)]
    status = "fail" if violated else "pass" if timed and bounds else "unverifiable"
    return status, min(violated, key=lambda bound: bound[1], default=None)


# ---------------------------------------------------------------------------
# Grid execution
# ---------------------------------------------------------------------------

def resolve_output_dir(config: ExperimentConfig | None, override: str | None = None) -> Path:
    """Output directory precedence: explicit override, environment, config, default."""

    if override:
        return Path(override)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    if config is not None and config.out:
        return Path(config.out)
    return Path(DEFAULT_OUTPUT_DIR)


def _trace_filename(eps: float, seed: int) -> str:
    return f"trace-eps{eps!r}-seed{seed}.jsonl"


def _delay_for_cell(config: ExperimentConfig, seed: int) -> DelayModel:
    # Every async config has a delay model; a pinned seed wins.
    if config.delay.seed is None:
        return dataclasses.replace(config.delay, seed=seed)
    return config.delay


# RunSummary fields copied unchanged from the engine's summary record.
_ENGINE_FIELDS = ("N", "n_bar", "scheme", "method", "time_to_eps", "oracle_calls_total",
                  "complete", "messages_total", "restarts_per_copy", "f_x0")


def run_cell(config: ExperimentConfig, eps: float, seed: int, out_dir: Path | None = None,
             built: tuple[ProblemInstance, np.ndarray] | RestartFomError | None = None,
             ) -> RunSummary:
    """Run one (eps, seed) cell and evaluate its guarantees.

    ``built`` is the seed's ``build_problem`` result, or the error it raised;
    without it the cell builds its own.  Build, simulation or write failures
    are captured in the returned summary's ``error`` field instead of
    propagating, so grids keep going.
    """

    N = config.N if config.N is not None else default_N(eps)
    scheme, spec = config.scheme, config.method
    # A sync engine runs int(budget) whole periods (or slots); async runs to the budget.
    budget = float(config.budget) if scheme == "async" else int(config.budget)
    try:
        if isinstance(built, RestartFomError):
            raise built
        problem, x0 = build_problem(config, seed) if built is None else built
        if scheme == "async":
            trace, summary = run_async(problem, spec, eps, x0=x0, N=N,
                                       delay_model=_delay_for_cell(config, seed), budget=budget)
        else:
            mode = "lockstep" if scheme == "sync-lockstep" else "sequential"
            trace, summary = run_sync(problem, spec, eps, x0=x0, N=N, mode=mode, budget=budget)
    except RestartFomError as exc:
        return RunSummary(
            eps=eps, N=N, n_bar=None, scheme=scheme, method=spec.kind,
            time_to_eps=None, oracle_calls_total=0, bound_theorem=None,
            bound_corollary=None, compliant=None, seed=seed, complete=False,
            messages_total=0, error=f"{type(exc).__name__}: {exc}", budget=budget,
        )

    theorem, corollary = _cell_bounds(problem, x0, config, spec, summary["f_x0"], eps, N)
    bound_theorem = theorem.total if theorem is not None and theorem.assumptions_ok else None
    bound_corollary = (corollary.total if corollary is not None and corollary.assumptions_ok
                       else None)
    if bound_theorem is not None and scheme == "sync-sequential":
        bound_theorem *= N + 2  # one lockstep period is N + 2 single-copy slots
        if bound_theorem == math.inf:  # a total beyond the float range is absent
            bound_theorem = None

    trace_path: str | None = None
    error: str | None = None
    if out_dir is not None:
        trace_name = _trace_filename(eps, seed)
        try:
            trace.write_jsonl(Path(out_dir) / trace_name, summary=summary)
            trace_path = trace_name
        except (OSError, NonFiniteValueError) as exc:
            error = f"trace write failed: {exc}"

    cell = RunSummary(
        eps=eps, seed=seed, **{name: summary[name] for name in _ENGINE_FIELDS},
        bound_theorem=bound_theorem, bound_corollary=bound_corollary, compliant=None,
        growth_d=problem.metadata.d,
        bound_reports={"theorem": theorem and theorem.to_json(),
                       "corollary": corollary and corollary.to_json()},
        trace_path=trace_path, budget=budget,
    )
    # Judged before a write error is attached: the run itself happened.
    return dataclasses.replace(cell, compliant={"pass": True, "fail": False}.get(_judge(cell)[0]),
                               error=error)


def run_grid(config: ExperimentConfig, out_dir=None) -> list[RunSummary]:
    """Run every (eps, seed) cell and write traces, CSV, and JSON records."""

    directory = resolve_output_dir(config, str(out_dir) if out_dir is not None else None)
    directory.mkdir(parents=True, exist_ok=True)
    cells = {}
    for seed in config.seeds:  # one seed's problem alive at a time, built once
        try:
            built = build_problem(config, seed)
        except RestartFomError as exc:
            built = exc
        for eps in config.eps:
            cells[eps, seed] = run_cell(config, eps, seed, out_dir=directory, built=built)
        del built
    summaries = [cells[eps, seed] for eps in config.eps for seed in config.seeds]
    write_summaries_csv(directory / "summary.csv", summaries)
    with open(directory / "summaries.json", "w") as handle:
        json.dump({"summaries": [summary.to_json() for summary in summaries]},
                  handle, indent=2)
        handle.write("\n")
    return summaries


# ---------------------------------------------------------------------------
# Verification and rate fitting
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CellVerdict:
    """Per-cell verification outcome."""

    summary: RunSummary
    status: str  # "pass" | "fail" | "unverifiable"
    tightest_violated: tuple[str, float] | None

    def line(self) -> str:
        summary = self.summary
        key = f"eps={summary.eps!r} seed={summary.seed}"
        if self.status == "pass":
            return f"[pass] {key}: time {summary.time_to_eps!r} within every bound"
        if self.status == "fail":
            name, value = self.tightest_violated
            measured = ("incomplete run" if summary.time_to_eps is None
                        else repr(summary.time_to_eps))
            return f"[FAIL] {key}: {measured} exceeds {name} = {value!r}"
        if summary.error is not None:
            reason = f"cell failed: {summary.error}"
        elif summary.bound_theorem is None and summary.bound_corollary is None:
            reason = "no metadata-backed bound"
        elif summary.budget is None:
            reason = "incomplete run, no budget recorded"
        else:
            reason = f"incomplete run, budget {summary.budget!r} is below every bound"
        return f"[----] {key}: unverifiable ({reason})"


@dataclasses.dataclass(frozen=True)
class VerifyReport:
    """Aggregate of per-cell verdicts; pure function of the summaries."""

    verdicts: list[CellVerdict]

    @property
    def passed(self) -> int:
        return sum(verdict.status == "pass" for verdict in self.verdicts)

    @property
    def failed(self) -> int:
        return sum(verdict.status == "fail" for verdict in self.verdicts)

    @property
    def unverifiable(self) -> int:
        return sum(verdict.status == "unverifiable" for verdict in self.verdicts)

    @property
    def all_compliant(self) -> bool:
        return self.failed == 0

    def lines(self) -> list[str]:
        body = [verdict.line() for verdict in self.verdicts]
        body.append(f"{self.passed} pass, {self.failed} fail, "
                    f"{self.unverifiable} unverifiable")
        return body


def verify_bounds(summaries: list[RunSummary]) -> VerifyReport:
    """Judge each cell from its record alone, without re-simulating it or
    reading its stored ``compliant``."""

    return VerifyReport([CellVerdict(summary, *_judge(summary)) for summary in summaries])


FIT_FIELDS = ("time_to_eps", "bound_theorem", "bound_corollary",
              "oracle_calls_total")


@dataclasses.dataclass(frozen=True)
class FitResult:
    """Least-squares fit of a summary column against a scaling model."""

    model: str
    slope: float
    intercept: float
    r_squared: float
    exponent: float | None
    n_points: int
    field: str = "time_to_eps"

    def line(self) -> str:
        shape = "log2(1/eps)" if self.model == "log" else f"eps**-{self.exponent!r}"
        return (f"{self.model} model: {self.field} ~= {self.slope!r} * {shape} + "
                f"{self.intercept!r} (R^2 = {self.r_squared:.4f}, "
                f"{self.n_points} points)")


def fit_rate(summaries, model: str, field: str = "time_to_eps") -> FitResult:
    """Fit a summary column against log2(1/eps) or eps**-p, p = 2(1 - 1/d).

    ``field`` selects what is fitted: the measured ``time_to_eps``
    (default), the evaluated ``bound_theorem`` / ``bound_corollary``
    totals, or ``oracle_calls_total``.  Fitting a bound column checks
    the *shape* the guarantee promises; measured times only have to sit
    below it, and on instances the methods solve exactly they can be
    flat in eps while the guarantee still scales.
    """

    if model not in ("log", "power"):
        raise ParameterError(f"unknown fit model {model!r}, expected 'log' or 'power'")
    if field not in FIT_FIELDS:
        raise ParameterError(f"unknown fit field {field!r}, expected one of "
                             f"{FIT_FIELDS}")
    points = [(s.eps, getattr(s, field), s.growth_d) for s in summaries
              if getattr(s, field) is not None]
    if len({eps for eps, _, _ in points}) < 4:
        raise ParameterError("rate fitting needs at least 4 distinct eps values "
                             f"with {field} present, got "
                             f"{len({e for e, _, _ in points})}")

    exponent: float | None = None
    if model == "power":
        degrees = {d for _, _, d in points if d is not None}
        if len(degrees) != 1:
            raise ParameterError("power model needs one common growth degree in "
                                 f"the summaries, found {sorted(degrees)}")
        d = degrees.pop()
        exponent = 2.0 * (1.0 - 1.0 / d)
        if exponent <= 0.0:
            raise ParameterError(f"power model is degenerate at growth degree {d} "
                                 "(exponent 0); use the log model")
        xs = np.array([eps ** -exponent for eps, _, _ in points])
    else:
        xs = np.array([math.log2(1.0 / eps) for eps, _, _ in points])
    ys = np.array([value for _, value, _ in points])

    design = np.column_stack([xs, np.ones_like(xs)])
    (slope, intercept), *_ = np.linalg.lstsq(design, ys, rcond=None)
    predicted = design @ np.array([slope, intercept])
    ss_res = float(np.sum((ys - predicted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    if ss_tot == 0.0:
        raise ParameterError(f"degenerate grid: {field} values are all equal")
    return FitResult(model=model, slope=float(slope), intercept=float(intercept),
                     r_squared=1.0 - ss_res / ss_tot, exponent=exponent,
                     n_points=len(points), field=field)


def load_summaries(out_dir) -> list[RunSummary]:
    """Read back the full per-cell records written by run_grid.

    A record that is not an object or lacks a required field raises
    :class:`ConfigError` located as ``path:summaries[i]``; a field whose
    JSON type does not fit its :class:`RunSummary` annotation, or that holds
    NaN (which compares false with every bound), as ``path:summaries[i].field``.
    Infinity stays a number, so an infinite time fails its bounds.
    """

    path = Path(out_dir) / "summaries.json"
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise ConfigError(str(path), f"not a UTF-8 JSON document: {exc}") from exc
    records = document.get("summaries") if isinstance(document, dict) else None
    if not isinstance(records, list):
        raise ConfigError(str(path), "expected an object with a 'summaries' list")
    return [RunSummary.from_json(record, f"{path}:summaries[{index}]")
            for index, record in enumerate(records)]
