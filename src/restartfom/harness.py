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
    ParameterError,
    RestartFomError,
    UnsupportedQueryError,
)
from restartfom.methods import MethodSpec, resolve_L
from restartfom.problems import (
    ProblemInstance,
    make_least_squares_problem,
    make_norm_power_problem,
    make_piecewise_max_problem,
)
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
    """A validated experiment description with defaults applied."""

    problem: dict
    method: MethodSpec
    scheme: str
    eps: tuple[float, ...]
    N: int | None  # None means: use default_N(eps) per cell
    delay: DelayModel | None
    seeds: tuple[int, ...]
    budget: float
    out: str | None


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required key")
    return mapping[key]


def _reject_unknown(mapping: dict, allowed: set[str], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            where = f"{path}.{key}" if path else str(key)
            raise ConfigError(where, "unknown key")


# Value parsers: parse(value, path, spec) as in ProblemFamily; only cross-field rules read spec.

def _as_number(value, path: str, spec: dict | None = None, *, positive: bool = False,
               minimum: float | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    if positive and not number > 0.0:
        raise ConfigError(path, f"expected a positive number, got {value!r}")
    if minimum is not None and number < minimum:
        raise ConfigError(path, f"expected at least {minimum!r}, got {value!r}")
    return number


def _as_int(value, path: str, spec: dict | None = None, *, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"expected an integer >= {minimum}, got {value}")
    return value


_positive = functools.partial(_as_number, positive=True)
_degree = functools.partial(_as_number, minimum=1.0)
_count = functools.partial(_as_int, minimum=1)


def _numbers(value, path: str, length: int) -> list[float]:
    if not isinstance(value, list) or len(value) != length:
        raise ConfigError(path, f"expected a list of {length} numbers")
    return [_as_number(v, path) for v in value]


def _center(value, path: str, spec: dict) -> list[float]:
    return _numbers(value, path, spec["dimension"])


def _num_rows(value, path: str, spec: dict) -> int:
    return _as_int(value, path, minimum=spec["dimension"])


def _num_pieces(value, path: str, spec: dict) -> int:
    return _as_int(value, path, minimum=spec["dimension"] + 1)


def _rank(value, path: str, spec: dict) -> int:
    rank = _as_int(value, path, minimum=1)
    if rank > spec["dimension"]:
        raise ConfigError(path, f"rank {rank} exceeds dimension {spec['dimension']}")
    return rank


def _sigma_range(value, path: str, spec: dict) -> list[float]:
    lo, hi = _numbers(value, path, 2)
    if not (0.0 < lo <= hi):
        raise ConfigError(path, f"expected 0 < lo <= hi, got [{lo}, {hi}]")
    return [lo, hi]


class ProblemFamily(typing.NamedTuple):
    """A problem family's config fields after ``dimension``, in parsing order,
    each ``name: (parse, required)`` where ``parse(value, path, spec)`` sees
    the fields parsed before it; and ``build(spec, seed)``, which makes the
    seeded instance."""

    fields: dict
    build: typing.Callable[[dict, int], ProblemInstance]


PROBLEM_FAMILIES = {
    "norm-power": ProblemFamily(
        {"mu": (_positive, True), "d": (_degree, True), "center": (_center, False),
         "gap": (_positive, True)},
        lambda spec, seed: make_norm_power_problem(spec["dimension"], spec["mu"], spec["d"],
                                                   center=spec.get("center"))),
    "piecewise-max": ProblemFamily(
        {"num_pieces": (_num_pieces, True), "gap": (_positive, True)},
        lambda spec, seed: make_piecewise_max_problem(spec["dimension"], spec["num_pieces"],
                                                      seed)),
    "least-squares": ProblemFamily(
        {"num_rows": (_num_rows, True), "rank": (_rank, False),
         "sigma_range": (_sigma_range, False), "gap": (_positive, True)},
        lambda spec, seed: make_least_squares_problem(
            spec["dimension"], spec["num_rows"], seed, rank=spec.get("rank"),
            sigma_range=tuple(spec.get("sigma_range", (1.0, 2.0))))),
}


def _parse_problem(document, path: str = "problem") -> dict:
    if not isinstance(document, dict):
        raise ConfigError(path, "expected an object with a 'family' key")
    family = _require(document, "family", path)
    names = tuple(PROBLEM_FAMILIES)
    if family not in names:
        raise ConfigError(f"{path}.family", f"unknown family {family!r}, expected one of {names}")
    fields = {"dimension": (_count, True), **PROBLEM_FAMILIES[family].fields}
    _reject_unknown(document, {"family", *fields}, path)
    spec: dict = {"family": family}
    for name, (parse, required) in fields.items():
        if required or name in document:
            spec[name] = parse(_require(document, name, path), f"{path}.{name}", spec)
    return spec


def _has_json_type(value, annotation) -> bool:
    """Whether a JSON value fits a field's annotation: an int is also a
    float, and a bool is neither."""
    return any(isinstance(value, bool) == (kind is bool)
               and isinstance(value, (int, float) if kind is float else kind)
               for kind in typing.get_args(annotation) or (annotation,))


_field_types = functools.cache(typing.get_type_hints)  # resolved per class on first use


def _build_record(cls, record: dict, where: str):
    """The dataclass ``cls`` built from the fields of a JSON object; other
    keys are ignored.  A field whose JSON type does not fit its annotation,
    or that holds NaN, is a :class:`ConfigError` at ``where.field``; a
    missing field, or a value ``cls`` refuses or cannot hold as a float, one
    at ``where``."""

    annotations = _field_types(cls)
    fields = {name: value for name, value in record.items() if name in annotations}
    for name, value in fields.items():
        if not _has_json_type(value, annotations[name]):
            raise ConfigError(f"{where}.{name}",
                              f"expected {cls.__annotations__[name]}, got {value!r}")
        if isinstance(value, float) and math.isnan(value):
            raise ConfigError(f"{where}.{name}", "NaN is not a number here")
    try:
        return cls(**fields)
    except (ParameterError, TypeError, OverflowError) as exc:  # TypeError: a field is missing
        raise ConfigError(where, str(exc)) from exc


def _parse_record(cls, document, path: str, expected: str):
    if not isinstance(document, dict):
        raise ConfigError(path, expected)
    _reject_unknown(document, set(_field_types(cls)), path)
    return _build_record(cls, document, path)


def _parse_method(document, path: str = "method") -> MethodSpec:
    if isinstance(document, str):
        document = {"kind": document}
    spec = _parse_record(MethodSpec, document, path,
                         "expected a method name or an object with a 'kind' key")
    if spec.kind == "univ" and spec.L0 is None:
        raise ConfigError(f"{path}.L0", "the univ method requires an initial curvature guess")
    return spec


def parse_config(document) -> ExperimentConfig:
    """Validate a configuration document and apply defaults.

    Accepts a dict or a JSON string.  Unknown keys and out-of-range values
    raise ConfigError carrying the offending entry's path.
    """

    if isinstance(document, str):
        try:
            document = json.loads(document)
        except ValueError as exc:  # also an integer literal too long to convert
            raise ConfigError("", f"not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError("", "config must be a JSON object")
    _reject_unknown(document, {"problem", "method", "scheme", "eps", "N",
                               "delay", "seed", "seeds", "budget", "out"}, "")

    problem = _parse_problem(_require(document, "problem", ""))
    method = _parse_method(_require(document, "method", ""))

    scheme = _require(document, "scheme", "")
    if scheme not in SCHEMES:
        raise ConfigError("scheme", f"unknown scheme {scheme!r}, expected one of {SCHEMES}")

    raw_eps = _require(document, "eps", "")
    if isinstance(raw_eps, (int, float)) and not isinstance(raw_eps, bool):
        raw_eps = [raw_eps]
    if not isinstance(raw_eps, list) or not raw_eps:
        raise ConfigError("eps", "expected a nonempty list of accuracies")
    eps = tuple(_as_number(value, f"eps[{i}]", minimum=EPS_MIN)
                for i, value in enumerate(raw_eps))
    if len(set(eps)) != len(eps):
        raise ConfigError("eps", "accuracies must be distinct")

    N: int | None = None
    if "N" in document and document["N"] != "default":
        N = _as_int(document["N"], "N", minimum=-1)

    delay: DelayModel | None = None
    if scheme == "async":
        if "delay" not in document:
            raise ConfigError("delay", "the async scheme requires a delay model")
        delay = _parse_record(DelayModel, document["delay"], "delay",
                              "expected an object of delay-model fields")
    elif "delay" in document:
        raise ConfigError("delay", "delay model applies only to the async scheme")

    if "seed" in document and "seeds" in document:
        raise ConfigError("seeds", "give either 'seed' or 'seeds', not both")
    if "seeds" in document:
        raw_seeds = document["seeds"]
        if not isinstance(raw_seeds, list) or not raw_seeds:
            raise ConfigError("seeds", "expected a nonempty list of integers")
        seeds = tuple(_as_int(s, f"seeds[{i}]", minimum=0)
                      for i, s in enumerate(raw_seeds))
    elif "seed" in document:
        seeds = (_as_int(document["seed"], "seed", minimum=0),)
    else:
        seeds = (0,)

    budget = DEFAULT_BUDGET
    if "budget" in document:
        budget = _as_number(document["budget"], "budget", positive=True)

    out = document.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out", f"expected a directory name, got {out!r}")

    return ExperimentConfig(problem=problem, method=method, scheme=scheme,
                            eps=eps, N=N, delay=delay, seeds=seeds,
                            budget=budget, out=out)


def build_problem(config: ExperimentConfig, seed: int) -> tuple[ProblemInstance, np.ndarray]:
    """Materialize the configured problem and its seeded start point."""

    spec = config.problem
    problem = PROBLEM_FAMILIES[spec["family"]].build(spec, seed)
    x0 = problem.point_at_gap(spec["gap"], rng=np.random.default_rng(seed))
    return problem, x0


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


def _format_csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_summaries_csv(path, summaries) -> None:
    """Write the fixed-column CSV; one row per cell."""

    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(CSV_COLUMNS))
        writer.writeheader()
        for summary in summaries:
            writer.writerow({column: _format_csv_value(value)
                             for column, value in summary.csv_record().items()})


def read_summaries_csv(path) -> list[dict]:
    """Parse the fixed-column CSV back into typed records (lossless); each
    column's parser, and whether it may be empty, come from its
    :class:`RunSummary` annotation."""

    annotations = _field_types(RunSummary)
    columns = []
    for column in CSV_COLUMNS:
        kind, *optional = typing.get_args(annotations[column]) or (annotations[column],)
        parse = {"true": True, "false": False}.__getitem__ if kind is bool else kind
        columns.append((column, parse, not optional))
    rows: list[dict] = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != list(CSV_COLUMNS):
            raise ConfigError(str(path), f"unexpected CSV columns {reader.fieldnames}")
        for index, raw in enumerate(reader):
            record: dict = {}
            for column, parse, required in columns:
                text = raw[column]
                if text == "":
                    if required:
                        raise ConfigError(f"{path}:{index + 2}.{column}",
                                          "required column is empty")
                    record[column] = None
                    continue
                try:
                    record[column] = parse(text)
                except (ValueError, KeyError) as exc:
                    raise ConfigError(f"{path}:{index + 2}.{column}",
                                      f"cannot parse {text!r}") from exc
            rows.append(record)
    return rows


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
    """``bound()``, or None when the instance does not support that guarantee."""
    try:
        return bound()
    except (UnsupportedQueryError, ParameterError):
        return None


def _cell_bounds(problem: ProblemInstance, x0: np.ndarray, config: ExperimentConfig,
                 spec: MethodSpec, f_x0: float, eps: float, N: int):
    """The (theorem, corollary) reports this instance's metadata supports,
    each a :class:`BoundReport` or None."""

    metadata = problem.metadata
    if metadata is None:
        return None, None
    try:
        distance = problem.distance_to_opt(x0)
        metadata = dataclasses.replace(metadata, dist_x0_to_opt=float(distance))
    except RestartFomError:
        pass
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


def _compliance(time_to_eps: float | None, complete: bool, budget: float,
                totals: list[float]) -> bool | None:
    if not totals:
        return None
    if complete and time_to_eps is not None:
        return all(time_to_eps <= total for total in totals)
    # Incomplete cell: the budget itself witnesses a violation when it
    # already exceeds some guarantee; otherwise the comparison is unknown.
    if any(budget >= total for total in totals):
        return False
    return None


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


def _delay_for_cell(config: ExperimentConfig, seed: int) -> DelayModel | None:
    if config.delay is None:
        return None
    if config.delay.seed is None:
        return dataclasses.replace(config.delay, seed=seed)
    return config.delay


# RunSummary fields copied unchanged from the engine's summary record.
_ENGINE_FIELDS = ("N", "n_bar", "scheme", "method", "time_to_eps", "oracle_calls_total",
                  "complete", "messages_total", "restarts_per_copy", "f_x0")


def run_cell(config: ExperimentConfig, eps: float, seed: int,
             out_dir: Path | None = None) -> RunSummary:
    """Run one (eps, seed) cell and evaluate its guarantees.

    Simulation or write failures are captured in the returned summary's
    ``error`` field instead of propagating, so grids keep going.
    """

    N = config.N if config.N is not None else default_N(eps)
    scheme, spec = config.scheme, config.method
    trace_name = _trace_filename(eps, seed)
    try:
        problem, x0 = build_problem(config, seed)
        if scheme == "async":
            trace, summary = run_async(problem, spec, eps, x0=x0, N=N,
                                       delay_model=_delay_for_cell(config, seed),
                                       budget=float(config.budget))
        else:
            mode = "lockstep" if scheme == "sync-lockstep" else "sequential"
            trace, summary = run_sync(problem, spec, eps, x0=x0, N=N, mode=mode,
                                      budget=int(config.budget))
    except RestartFomError as exc:
        return RunSummary(
            eps=eps, N=N, n_bar=None, scheme=scheme, method=spec.kind,
            time_to_eps=None, oracle_calls_total=0, bound_theorem=None,
            bound_corollary=None, compliant=None, seed=seed, complete=False,
            messages_total=0, error=f"{type(exc).__name__}: {exc}",
        )

    theorem, corollary = _cell_bounds(problem, x0, config, spec, summary["f_x0"], eps, N)
    bound_theorem = theorem.total if theorem is not None and theorem.assumptions_ok else None
    bound_corollary = (corollary.total if corollary is not None and corollary.assumptions_ok
                       else None)
    if bound_theorem is not None and scheme == "sync-sequential":
        bound_theorem *= N + 2  # one lockstep period is N + 2 single-copy slots
    compliant = _compliance(summary["time_to_eps"], summary["complete"], float(config.budget),
                            [t for t in (bound_theorem, bound_corollary) if t is not None])

    trace_path: str | None = None
    error: str | None = None
    if out_dir is not None:
        try:
            trace.write_jsonl(Path(out_dir) / trace_name, summary=summary)
            trace_path = trace_name
        except OSError as exc:
            error = f"trace write failed: {exc}"

    return RunSummary(
        eps=eps, seed=seed, **{name: summary[name] for name in _ENGINE_FIELDS},
        bound_theorem=bound_theorem, bound_corollary=bound_corollary, compliant=compliant,
        growth_d=problem.metadata.d if problem.metadata is not None else None,
        bound_reports={"theorem": theorem and theorem.to_json(),
                       "corollary": corollary and corollary.to_json()},
        trace_path=trace_path, error=error,
    )


def run_grid(config: ExperimentConfig, out_dir=None) -> list[RunSummary]:
    """Run every (eps, seed) cell and write traces, CSV, and JSON records."""

    directory = resolve_output_dir(config, str(out_dir) if out_dir is not None else None)
    directory.mkdir(parents=True, exist_ok=True)
    summaries = [run_cell(config, eps, seed, out_dir=directory)
                 for eps in config.eps for seed in config.seeds]
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

    eps: float
    seed: int | None
    scheme: str
    method: str
    status: str  # "pass" | "fail" | "unverifiable"
    measured: float | None
    tightest_violated: tuple[str, float] | None
    error: str | None = None  # why the cell failed to run

    def line(self) -> str:
        key = f"eps={self.eps!r}" + (f" seed={self.seed}" if self.seed is not None else "")
        if self.error is not None:
            return f"[----] {key}: unverifiable (cell failed: {self.error})"
        if self.status == "pass":
            return f"[pass] {key}: time {self.measured!r} within every bound"
        if self.status == "fail":
            name, value = self.tightest_violated
            measured = "incomplete run" if self.measured is None else repr(self.measured)
            return f"[FAIL] {key}: {measured} exceeds {name} = {value!r}"
        return f"[----] {key}: unverifiable (no metadata-backed bound)"


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


def _bound_label(scheme: str, method: str, which: str) -> str:
    if which == "theorem":
        return "async theorem bound" if scheme == "async" else "sync theorem bound"
    return f"{method} corollary bound"


def verify_bounds(summaries) -> VerifyReport:
    """Compare measured times against stored bound totals; no re-simulation."""

    verdicts: list[CellVerdict] = []
    for index, summary in enumerate(summaries):
        if isinstance(summary, dict):
            summary = RunSummary.from_json(summary, f"summaries[{index}]")
        bounds = [(_bound_label(summary.scheme, summary.method, which), total)
                  for which, total in (("theorem", summary.bound_theorem),
                                       ("corollary", summary.bound_corollary))
                  if total is not None]
        if summary.error is not None or not bounds or summary.compliant is None:
            status, tightest = "unverifiable", None
        elif summary.time_to_eps is not None and summary.complete:
            violated = [(name, total) for name, total in bounds
                        if summary.time_to_eps > total]
            status = "fail" if violated else "pass"
            tightest = min(violated, key=lambda pair: pair[1]) if violated else None
        elif summary.compliant is False:
            status, tightest = "fail", min(bounds, key=lambda pair: pair[1])
        else:
            status, tightest = "unverifiable", None
        verdicts.append(CellVerdict(
            eps=summary.eps, seed=summary.seed, scheme=summary.scheme,
            method=summary.method, status=status,
            measured=summary.time_to_eps, tightest_violated=tightest, error=summary.error,
        ))
    return VerifyReport(verdicts)


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
    with open(path) as handle:
        document = json.load(handle)
    records = document.get("summaries") if isinstance(document, dict) else None
    if not isinstance(records, list):
        raise ConfigError(str(path), "expected an object with a 'summaries' list")
    return [RunSummary.from_json(record, f"{path}:summaries[{index}]")
            for index, record in enumerate(records)]
