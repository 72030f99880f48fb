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
import json
import math
import os
import typing
from pathlib import Path

import numpy as np

from restartfom.async_scheme import DelayModel, run_async
from restartfom.bounds import (
    EPS_MIN,
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
from restartfom.methods import MethodSpec
from restartfom.problems import (
    ProblemInstance,
    make_least_squares_problem,
    make_norm_power_problem,
    make_piecewise_max_problem,
)
from restartfom.sync_scheme import run_sync

SCHEMES = ("sync-lockstep", "sync-sequential", "async")

PROBLEM_FAMILIES = ("norm-power", "piecewise-max", "least-squares")

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

DEFAULT_BUDGET = 100_000.0


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


def _as_number(value, path: str, *, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    if positive and not number > 0.0:
        raise ConfigError(path, f"expected a positive number, got {value!r}")
    return number


def _as_int(value, path: str, *, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"expected an integer >= {minimum}, got {value}")
    return value


def _parse_problem(document, path: str = "problem") -> dict:
    if not isinstance(document, dict):
        raise ConfigError(path, "expected an object with a 'family' key")
    family = _require(document, "family", path)
    if family not in PROBLEM_FAMILIES:
        raise ConfigError(f"{path}.family",
                          f"unknown family {family!r}, expected one of {PROBLEM_FAMILIES}")
    spec: dict = {"family": family}
    if family == "norm-power":
        _reject_unknown(document, {"family", "dimension", "mu", "d", "gap", "center"}, path)
        spec["dimension"] = _as_int(_require(document, "dimension", path),
                                    f"{path}.dimension", minimum=1)
        spec["mu"] = _as_number(_require(document, "mu", path),
                                f"{path}.mu", positive=True)
        spec["d"] = _as_number(_require(document, "d", path), f"{path}.d")
        if spec["d"] < 1.0:
            raise ConfigError(f"{path}.d", f"growth degree must be >= 1, got {spec['d']}")
        if "center" in document:
            center = document["center"]
            if (not isinstance(center, list)
                    or len(center) != spec["dimension"]
                    or not all(isinstance(c, (int, float)) and not isinstance(c, bool)
                               for c in center)):
                raise ConfigError(f"{path}.center",
                                  f"expected a list of {spec['dimension']} numbers")
            spec["center"] = [float(c) for c in center]
    elif family == "piecewise-max":
        _reject_unknown(document, {"family", "dimension", "num_pieces", "gap"}, path)
        spec["dimension"] = _as_int(_require(document, "dimension", path),
                                    f"{path}.dimension", minimum=1)
        spec["num_pieces"] = _as_int(_require(document, "num_pieces", path),
                                     f"{path}.num_pieces", minimum=1)
    else:  # least-squares
        _reject_unknown(document,
                        {"family", "dimension", "num_rows", "gap", "rank", "sigma_range"},
                        path)
        spec["dimension"] = _as_int(_require(document, "dimension", path),
                                    f"{path}.dimension", minimum=1)
        spec["num_rows"] = _as_int(_require(document, "num_rows", path),
                                   f"{path}.num_rows", minimum=spec["dimension"])
        if "rank" in document:
            spec["rank"] = _as_int(document["rank"], f"{path}.rank", minimum=1)
            if spec["rank"] > spec["dimension"]:
                raise ConfigError(f"{path}.rank",
                                  f"rank {spec['rank']} exceeds dimension {spec['dimension']}")
        if "sigma_range" in document:
            pair = document["sigma_range"]
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                               for v in pair)):
                raise ConfigError(f"{path}.sigma_range", "expected a [lo, hi] number pair")
            lo, hi = float(pair[0]), float(pair[1])
            if not (0.0 < lo <= hi):
                raise ConfigError(f"{path}.sigma_range",
                                  f"expected 0 < lo <= hi, got [{lo}, {hi}]")
            spec["sigma_range"] = [lo, hi]
    spec["gap"] = _as_number(_require(document, "gap", path), f"{path}.gap", positive=True)
    return spec


def _parse_method(document, path: str = "method") -> MethodSpec:
    if isinstance(document, str):
        document = {"kind": document}
    if not isinstance(document, dict):
        raise ConfigError(path, "expected a method name or an object with a 'kind' key")
    _reject_unknown(document, {"kind", "L", "L0"}, path)
    kind = _require(document, "kind", path)
    extras = {}
    for field in ("L", "L0"):
        if field in document:
            extras[field] = _as_number(document[field], f"{path}.{field}", positive=True)
    try:
        spec = MethodSpec(kind, **extras)
    except ParameterError as exc:
        raise ConfigError(path, str(exc)) from exc
    if spec.kind == "univ" and spec.L0 is None:
        raise ConfigError(f"{path}.L0", "the univ method requires an initial curvature guess")
    return spec


def _parse_delay(document, path: str = "delay") -> DelayModel:
    if not isinstance(document, dict):
        raise ConfigError(path, "expected an object of delay-model fields")
    allowed = {field.name for field in dataclasses.fields(DelayModel)}
    _reject_unknown(document, allowed, path)
    try:
        return DelayModel(**document)
    except (ParameterError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from exc


def parse_config(document) -> ExperimentConfig:
    """Validate a configuration document and apply defaults.

    Accepts a dict or a JSON string.  Unknown keys and out-of-range values
    raise ConfigError carrying the offending entry's path.
    """

    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
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
    eps = tuple(_as_number(value, f"eps[{i}]", positive=True)
                for i, value in enumerate(raw_eps))
    if len(set(eps)) != len(eps):
        raise ConfigError("eps", "accuracies must be distinct")
    for i, value in enumerate(eps):
        if value < EPS_MIN:
            raise ConfigError(f"eps[{i}]", f"expected at least {EPS_MIN!r}, got {value!r}")

    N: int | None = None
    if "N" in document and document["N"] != "default":
        N = _as_int(document["N"], "N", minimum=-1)

    delay: DelayModel | None = None
    if scheme == "async":
        if "delay" not in document:
            raise ConfigError("delay", "the async scheme requires a delay model")
        delay = _parse_delay(document["delay"])
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
    family = spec["family"]
    if family == "norm-power":
        center = np.asarray(spec["center"], dtype=float) if "center" in spec else None
        problem = make_norm_power_problem(spec["dimension"], spec["mu"], spec["d"],
                                          center=center)
    elif family == "piecewise-max":
        problem = make_piecewise_max_problem(spec["dimension"], spec["num_pieces"], seed)
    else:
        problem = make_least_squares_problem(
            spec["dimension"], spec["num_rows"], seed,
            rank=spec.get("rank"),
            sigma_range=tuple(spec.get("sigma_range", (1.0, 2.0))),
        )
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
    def from_json(cls, record: dict) -> "RunSummary":
        fields = {field.name for field in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in record.items() if key in fields})

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


_CSV_PARSERS = {
    "eps": float,
    "N": int,
    "n_bar": int,
    "scheme": str,
    "method": str,
    "time_to_eps": float,
    "oracle_calls_total": int,
    "bound_theorem": float,
    "bound_corollary": float,
    "compliant": lambda text: {"true": True, "false": False}[text],
}

_CSV_REQUIRED = {"eps", "N", "scheme", "method", "oracle_calls_total"}


def write_summaries_csv(path, summaries) -> None:
    """Write the fixed-column CSV; one row per cell."""

    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(CSV_COLUMNS))
        writer.writeheader()
        for summary in summaries:
            record = summary.csv_record() if isinstance(summary, RunSummary) else summary
            writer.writerow({column: _format_csv_value(record[column])
                             for column in CSV_COLUMNS})


def read_summaries_csv(path) -> list[dict]:
    """Parse the fixed-column CSV back into typed records (lossless)."""

    rows: list[dict] = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != list(CSV_COLUMNS):
            raise ConfigError(str(path), f"unexpected CSV columns {reader.fieldnames}")
        for index, raw in enumerate(reader):
            record: dict = {}
            for column in CSV_COLUMNS:
                text = raw[column]
                if text == "":
                    if column in _CSV_REQUIRED:
                        raise ConfigError(f"{path}:{index + 2}.{column}",
                                          "required column is empty")
                    record[column] = None
                    continue
                try:
                    record[column] = _CSV_PARSERS[column](text)
                except (ValueError, KeyError) as exc:
                    raise ConfigError(f"{path}:{index + 2}.{column}",
                                      f"cannot parse {text!r}") from exc
            rows.append(record)
    return rows


# ---------------------------------------------------------------------------
# Bound evaluation per cell
# ---------------------------------------------------------------------------

def _subgradient_bound_M(problem: ProblemInstance, f_x0: float) -> float:
    metadata = problem.metadata
    if metadata is not None and metadata.M is not None:
        return metadata.M
    return problem.subgradient_norm_bound(f_x0)


def _epoch_iterations(problem: ProblemInstance, spec: MethodSpec, f_x0: float):
    """Per-epoch iteration budget k(delta, eps_bar) for the configured method."""

    metadata = problem.metadata
    if spec.kind == "subgrad":
        M = _subgradient_bound_M(problem, f_x0)
        return lambda delta, eps_bar: float(k_subgrad(M, delta, eps_bar))
    if spec.kind == "accel":
        L = spec.L if spec.L is not None else (metadata.L if metadata else None)
        if L is None:
            raise UnsupportedQueryError("accel bound needs a smoothness constant L")
        return lambda delta, eps_bar: float(k_accel(L, delta, eps_bar))
    if metadata is None or metadata.M_nu is None or metadata.nu is None:
        raise UnsupportedQueryError("univ bound needs Hölder constants in the metadata")
    M_nu, nu = metadata.M_nu, metadata.nu
    return lambda delta, eps_bar: float(k_univ(M_nu, nu, delta, eps_bar))


def _epoch_time(problem: ProblemInstance, spec: MethodSpec, f_x0: float):
    """Per-epoch oracle-call budget for the async guarantee (iterations + 1
    for subgrad/accel; the line-search-aware total for univ)."""

    metadata = problem.metadata
    if spec.kind in ("subgrad", "accel"):
        iterations = _epoch_iterations(problem, spec, f_x0)
        return lambda delta, eps_bar: iterations(delta, eps_bar) + 1.0
    if metadata is None or metadata.M_nu is None or metadata.nu is None:
        raise UnsupportedQueryError("univ bound needs Hölder constants in the metadata")
    M_nu, nu, L0 = metadata.M_nu, metadata.nu, spec.L0
    return lambda delta, eps_bar: float(t_univ(M_nu, nu, delta, eps_bar, L0))


def _cell_bounds(problem: ProblemInstance, x0: np.ndarray, config: ExperimentConfig,
                 spec: MethodSpec, f_x0: float, eps: float, N: int) -> dict:
    """Evaluate the guarantee totals this instance's metadata supports.

    Returns {"theorem": BoundReport | None, "corollary": BoundReport | None,
    "theorem_total": float | None, "corollary_total": float | None}; the
    sequential scheme's totals are scaled by N + 2 single-copy slots per
    lockstep period.
    """

    metadata = problem.metadata
    result: dict = {"theorem": None, "corollary": None,
                    "theorem_total": None, "corollary_total": None}
    if metadata is None:
        return result
    try:
        distance = problem.distance_to_opt(x0)
        metadata = dataclasses.replace(metadata, dist_x0_to_opt=float(distance))
    except (UnsupportedQueryError, RestartFomError):
        pass

    scale = float(N + 2) if config.scheme == "sync-sequential" else 1.0

    try:
        if config.scheme == "async":
            tau_transit = config.delay.effective_tau_transit(N)
            theorem = bound_async_theorem(metadata, f_x0, eps, N, tau_transit,
                                          config.delay.tau_pause,
                                          _epoch_time(problem, spec, f_x0))
        else:
            theorem = bound_sync_theorem(metadata, f_x0, eps, N,
                                         _epoch_iterations(problem, spec, f_x0))
        result["theorem"] = theorem
        if theorem.assumptions_ok:
            result["theorem_total"] = theorem.total * scale
    except (UnsupportedQueryError, ParameterError):
        pass

    try:
        corollary = None
        if config.scheme == "sync-lockstep":
            if spec.kind == "subgrad" and metadata.M is not None:
                corollary = bound_cor_subgrad(metadata, f_x0, eps, N)
            elif spec.kind == "accel":
                effective = metadata
                if effective.L is None and spec.L is not None:
                    effective = dataclasses.replace(effective, L=spec.L)
                corollary = bound_cor_accel(effective, f_x0, eps, N)
        elif config.scheme == "async" and spec.kind == "univ":
            corollary = bound_cor_univ(metadata, f_x0, eps, N,
                                       config.delay.effective_tau_transit(N),
                                       config.delay.tau_pause, spec.L0)
        if corollary is not None:
            result["corollary"] = corollary
            if corollary.assumptions_ok:
                result["corollary_total"] = corollary.total
    except (UnsupportedQueryError, ParameterError):
        pass

    return result


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

    f_x0 = summary["f_x0"]
    bounds = _cell_bounds(problem, x0, config, spec, f_x0, eps, N)
    totals = [total for total in (bounds["theorem_total"], bounds["corollary_total"])
              if total is not None]
    compliant = _compliance(summary["time_to_eps"], summary["complete"],
                            float(config.budget), totals)

    trace_path: str | None = None
    error: str | None = None
    if out_dir is not None:
        try:
            trace.write_jsonl(Path(out_dir) / trace_name, summary=summary)
            trace_path = trace_name
        except OSError as exc:
            error = f"trace write failed: {exc}"

    metadata = problem.metadata
    return RunSummary(
        eps=eps,
        N=summary["N"],
        n_bar=summary["n_bar"],
        scheme=summary["scheme"],
        method=summary["method"],
        time_to_eps=summary["time_to_eps"],
        oracle_calls_total=summary["oracle_calls_total"],
        bound_theorem=bounds["theorem_total"],
        bound_corollary=bounds["corollary_total"],
        compliant=compliant,
        seed=seed,
        complete=summary["complete"],
        messages_total=summary["messages_total"],
        restarts_per_copy=summary["restarts_per_copy"],
        growth_d=metadata.d if metadata is not None else None,
        f_x0=f_x0,
        bound_reports={
            "theorem": bounds["theorem"].to_json() if bounds["theorem"] else None,
            "corollary": bounds["corollary"].to_json() if bounds["corollary"] else None,
        },
        trace_path=trace_path,
        error=error,
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

    def line(self) -> str:
        key = f"eps={self.eps!r}" + (f" seed={self.seed}" if self.seed is not None else "")
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
    for summary in summaries:
        if isinstance(summary, dict):
            summary = RunSummary.from_json(summary)
        bounds = [(_bound_label(summary.scheme, summary.method, which), total)
                  for which, total in (("theorem", summary.bound_theorem),
                                       ("corollary", summary.bound_corollary))
                  if total is not None]
        if not bounds or summary.compliant is None:
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
            measured=summary.time_to_eps, tightest_violated=tightest,
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
    records = [RunSummary.from_json(s) if isinstance(s, dict) else s
               for s in summaries]
    points = [(s.eps, getattr(s, field), s.growth_d) for s in records
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


def _has_json_type(value, annotation) -> bool:
    """Whether a JSON value fits a field's annotation: an int is also a
    float, and a bool is neither."""
    return any(isinstance(value, bool) == (kind is bool)
               and isinstance(value, (int, float) if kind is float else kind)
               for kind in typing.get_args(annotation) or (annotation,))


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
    annotations = typing.get_type_hints(RunSummary)
    summaries = []
    for index, record in enumerate(records):
        where = f"{path}:summaries[{index}]"
        if not isinstance(record, dict):
            raise ConfigError(where, f"expected an object, got {record!r}")
        for field in dataclasses.fields(RunSummary):
            value = record.get(field.name)
            if field.name in record and not _has_json_type(value, annotations[field.name]):
                raise ConfigError(f"{where}.{field.name}",
                                  f"expected {field.type}, got {value!r}")
            if isinstance(value, float) and math.isnan(value):
                raise ConfigError(f"{where}.{field.name}", "NaN is not a measurement")
        try:
            summaries.append(RunSummary.from_json(record))
        except TypeError as exc:  # a required field is missing
            raise ConfigError(where, str(exc)) from exc
    return summaries
