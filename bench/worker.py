"""One workload in one fresh process: set up, run rounds, re-check, report.

Started by ``run.py``; prints one JSON object as its last stdout line.  A
round runs every grid config of the workload through ``restartfom.cli.main``
(``grid``, then ``verify``), then re-checks every output offline: each trace
is read back and passed through ``check_trace`` (and
``check_lockstep_iterates`` for lockstep cells), ``verify_bounds`` runs on
the reloaded summaries, and each cell's simulated results must equal the
stored reference.  Rounds repeat, with identical inputs, until the time is
up.  Timings are priced by ``priced``: every cell at its fastest round.
Other tenants of a shared host slow this process down for seconds to
minutes at a time, and never speed it up, so the fastest time is the
steadiest estimate of the program's own cost.

With ``--trace 1`` untraced and traced rounds alternate.  Per-layer metrics
come from the traced rounds only; their wall time against the untraced
rounds' gives the tracing overhead.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Rounds stop being started once this much time has passed, whatever
# --seconds says, so the process ends well inside its time limit.
HARD_STOP_S = 120.0

# The CPUs this process may run on, read before it pins itself to one.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--out", required=True, help="scratch directory for outputs")
    parser.add_argument("--reference", required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def import_program():
    """Import restartfom from this checkout's ``src``, never from elsewhere."""

    if "numpy" in sys.modules:
        raise RuntimeError("numpy imported before OPENBLAS_NUM_THREADS was checked")
    if not os.environ.get("OPENBLAS_NUM_THREADS"):
        raise RuntimeError("OPENBLAS_NUM_THREADS must be set before numpy is imported")
    sys.path.insert(0, str(SRC))
    import restartfom

    if Path(restartfom.__file__).resolve().parent != SRC / "restartfom":
        raise RuntimeError(f"restartfom imported from {restartfom.__file__}, not {SRC}")


class Workload:
    """The generated, validated configs of one workload and its reference."""

    def __init__(self, args):
        import workloads
        from restartfom.harness import parse_config

        document = json.loads(Path(args.reference).read_text())
        self.reference = document[args.workload]
        grids = workloads.round_grids(args.workload, args.seed, self.reference)
        self.out = Path(args.out)
        self.out.mkdir(parents=True, exist_ok=True)
        self.config_paths, self.configs = [], []
        for index, grid in enumerate(grids):
            path = self.out / f"config-{index}.json"
            path.write_text(json.dumps(grid, indent=2) + "\n")
            self.config_paths.append(path)
            self.configs.append(parse_config(path.read_text()))
        self.cells = sum(len(c.eps) * len(c.seeds) for c in self.configs)

    def grid_dir(self, index: int) -> Path:
        return self.out / f"grid-{index}"


class RoundResult:
    def __init__(self):
        self.timings: dict[str, float] = {}
        self.cell_walls: list[float] = []
        self.cell_checks: list[float] = []
        self.check_probe_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.oracle_calls = 0
        self.sim_time = 0.0
        self.trace_bytes = 0


def _silently(argv) -> int:
    from restartfom import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def recheck(workload: Workload, result: RoundResult) -> None:
    """Offline re-check of every cell the round wrote; fills ``result``."""

    from restartfom import harness, traces
    from workloads import cell_key, cell_record

    clock = time.perf_counter
    f_star_cache = {}
    for index, config in enumerate(workload.configs):
        directory = workload.grid_dir(index)
        summaries = harness.load_summaries(directory)
        report = harness.verify_bounds(summaries)
        if report.failed:
            result.failures.append(f"grid {index}: verify_bounds reports "
                                   f"{report.failed} failing cells")
        if len(summaries) != len(config.eps) * len(config.seeds):
            result.failures.append(f"grid {index}: {len(summaries)} summaries")
        for summary in summaries:
            result.check_probe_s += pin_to_quietest_cpu()
            cell_started = clock()
            result.attempted += 1
            where = f"grid {index} eps={summary.eps!r} seed={summary.seed}"
            defects = []
            if summary.error is not None:
                defects.append(f"error {summary.error}")
            if summary.compliant is False:
                defects.append("bound violation")
            if summary.trace_path is None:
                defects.append("no trace file")
            else:
                path = directory / summary.trace_path
                result.trace_bytes += path.stat().st_size
                trace, stored = traces.SchemeTrace.read_jsonl(path)
                if (index, summary.seed) not in f_star_cache:
                    problem, _ = harness.build_problem(config, summary.seed)
                    f_star_cache[index, summary.seed] = problem.metadata.f_star
                delay = stored["delay_model"]
                defects += traces.check_trace(
                    trace, eps=summary.eps, N=summary.N,
                    f_star=f_star_cache[index, summary.seed],
                    tau_pause=delay["tau_pause"] if delay else None,
                    tau_transit=delay["effective_tau_transit"] if delay else None)
                if summary.scheme == "sync-lockstep":
                    defects += traces.check_lockstep_iterates(trace, stored["periods"])
                if stored["oracle_calls_total"] != summary.oracle_calls_total:
                    defects.append("trace summary disagrees with summaries.json")
            record = workload.reference.get(cell_key(index, summary.eps, summary.seed))
            observed = cell_record(summary)
            if record != observed:
                defects.append(f"reference {record} != observed {observed}")
            if defects:
                result.failed += 1
                result.failures.append(f"{where}: " + "; ".join(defects[:3]))
            result.oracle_calls += summary.oracle_calls_total
            result.sim_time += summary.time_to_eps or 0.0
            result.cell_checks.append(clock() - cell_started)


def _probe_s() -> float:
    started = time.perf_counter()
    sum(i * i % 7 for i in range(20_000))
    return time.perf_counter() - started


def pin_to_quietest_cpu() -> float:
    """Pin this process to the CPU on which a fixed loop runs fastest right now.

    Other tenants of a shared host slow each virtual CPU down on its own, by
    up to half, for seconds at a time.  Runs before every cell; returns its
    own duration, which the caller leaves out of its timings.
    """

    started = time.perf_counter()
    if len(CPUS) > 1:
        speeds = {}
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            speeds[cpu] = min(_probe_s(), _probe_s())
        os.sched_setaffinity(0, {min(speeds, key=speeds.get)})
    return time.perf_counter() - started


def run_round(workload: Workload, tracer=None) -> RoundResult:
    result = RoundResult()
    for index in range(len(workload.configs)):
        shutil.rmtree(workload.grid_dir(index), ignore_errors=True)
    clock = time.perf_counter
    started = clock()
    with CellTimer(tracer) as cells:
        for index, path in enumerate(workload.config_paths):
            code = _silently(["grid", "--config", str(path), "--out",
                              str(workload.grid_dir(index))])
            if code != 0:
                result.failures.append(f"grid {index}: grid exited {code}")
    gridded = clock()
    for index in range(len(workload.configs)):
        code = _silently(["verify", "--out", str(workload.grid_dir(index))])
        if code != 0:
            result.failures.append(f"grid {index}: verify exited {code}")
    verified = clock()
    recheck(workload, result)
    checked = clock()
    result.cell_walls = cells.walls
    result.timings = {"run_s": gridded - started - cells.probe_s,
                      "verify_s": verified - gridded,
                      "check_s": checked - verified - result.check_probe_s}
    return result


def priced(rounds: list[RoundResult]) -> dict[str, float]:
    """Each phase priced at its fastest: the sum of every cell's fastest time
    over ``rounds`` plus the fastest remainder of the phase (CLI, CSV, JSON,
    ``verify_bounds``).  Cells run in the same order in every round.

    Contention only ever slows work down, and it changes within seconds, so
    per-cell minima come closest to the program's own cost.
    """

    def phase(key: str, cells: str) -> tuple[float, list[float]]:
        fastest = [min(times) for times in zip(*(getattr(r, cells) for r in rounds))]
        rest = min(r.timings[key] - sum(getattr(r, cells)) for r in rounds)
        return sum(fastest) + rest, fastest

    run_s, cell_fastest = phase("run_s", "cell_walls")
    check_s, _ = phase("check_s", "cell_checks")
    verify_s = min(r.timings["verify_s"] for r in rounds)
    return {"wall_s": run_s + verify_s + check_s, "run_s": run_s, "verify_s": verify_s,
            "check_s": check_s, "cell_wall_s_p50": statistics.median(cell_fastest)}


class CellTimer:
    """The only hook in untraced rounds: wall time of each ``harness.run_cell``,
    each started on the quietest CPU.

    Installed around the grid phase of every round, on top of any layer
    tracer, so that the CPU probe falls outside ``harness.run_cell``'s span;
    the tracer leaves it out of the enclosing span's self time too.
    """

    def __init__(self, tracer=None):
        self.walls: list[float] = []
        self.probe_s = 0.0
        self.tracer = tracer

    def __enter__(self):
        from restartfom import harness

        self.original = original = harness.run_cell
        walls, clock = self.walls, time.perf_counter

        def timed(*args, **kwargs):
            probe_s = pin_to_quietest_cpu()
            self.probe_s += probe_s
            if self.tracer is not None:
                self.tracer.exclude(probe_s)
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                walls.append(clock() - started)

        harness.run_cell = timed
        return self

    def __exit__(self, *exc_info):
        from restartfom import harness

        harness.run_cell = self.original


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    import_program()
    import numpy

    workload = Workload(args)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from layers import LayerTracer

    tracer = LayerTracer() if args.trace else None
    plain: list[RoundResult] = []
    traced: list[tuple[RoundResult, dict]] = []
    begun = time.monotonic()
    longest = 0.0
    while True:
        # A round starts only if it is expected to end within --seconds,
        # once the rounds every report needs have run.
        elapsed = time.monotonic() - begun
        needed = not plain or (tracer is not None and not traced)
        if not needed and (elapsed + longest > args.seconds or elapsed >= HARD_STOP_S):
            break
        started = time.monotonic()
        if tracer is not None and len(traced) < len(plain):
            tracer.reset(len(plain) + len(traced))
            tracer.install()
            try:
                result = run_round(workload, tracer)
            finally:
                tracer.remove()
            traced.append((result, tracer.metrics()))
        else:
            plain.append(run_round(workload))
        longest = max(longest, time.monotonic() - started)

    rounds = plain + [result for result, _ in traced]
    failures = [failure for result in rounds for failure in result.failures]
    attempted = sum(result.attempted for result in rounds)
    failed_cells = sum(result.failed for result in rounds)
    first = plain[0]
    consistent = all((r.oracle_calls, r.sim_time, r.trace_bytes)
                     == (first.oracle_calls, first.sim_time, first.trace_bytes)
                     for r in rounds)
    if not consistent:
        failures.append("rounds with identical inputs gave different outputs")

    price = priced(plain)
    cell_walls = [wall for result in plain for wall in result.cell_walls]
    end_to_end = {
        "setup_s": setup_s,
        "wall_s": price["wall_s"],
        "run_s": price["run_s"],
        "check_s": price["check_s"],
        "us_per_oracle_call": 1e6 * price["run_s"] / first.oracle_calls,
        "cell_wall_s_p50": price["cell_wall_s_p50"],
        "trace_bytes": first.trace_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        "environment": {"OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
                        "nproc": os.cpu_count(), "python": sys.version.split()[0],
                        "numpy": numpy.__version__},
        "seeds": [list(c.seeds) for c in workload.configs],
        "cells_per_round": workload.cells,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "cell_wall_samples": len(cell_walls),
        "cell_wall_s_p90": (statistics.quantiles(cell_walls, n=10, method="inclusive")[8]
                            if len(cell_walls) > 1 else cell_walls[0]),
        "verify_s": price["verify_s"],
        "round_timings": [r.timings for r in plain],
        "oracle_calls_total": first.oracle_calls,
        "sim_time_total": first.sim_time,
        "failed_frac": failed_cells / attempted if attempted else 1.0,
        "failures": failures[:20],
    }
    per_layer = {}
    if traced:
        layer_rounds = [metrics for _, metrics in traced]
        per_layer = {name: statistics.median(m[name] for m in layer_rounds)
                     for name in layer_rounds[0]}
        traced_wall = priced([result for result, _ in traced])["wall_s"]
        per_layer["trace_overhead_frac"] = traced_wall / end_to_end["wall_s"] - 1.0
        with open(workload.out / "spans.jsonl", "w") as handle:
            tracer.write_spans(handle)
    for index in range(len(workload.configs)):
        shutil.rmtree(workload.grid_dir(index), ignore_errors=True)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": max(failed_cells, 1 if failures else 0), "end_to_end": end_to_end,
                      "per_layer": per_layer, "report": report}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
