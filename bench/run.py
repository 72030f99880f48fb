"""Benchmark of the restartfom pipeline: config -> engine -> traces -> CSV -> verify.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: pwmax-lockstep-d200 and ladder-mix-small (see
``workloads.py``).  The workload runs in a fresh process (``worker.py``) with
BLAS pinned to one thread; a few more fresh processes only set up, and
``setup_s`` is the median set-up time over all of them.  The other timings
price every cell at its fastest round of the run.  With ``--trace 0``
the last stdout line carries the end-to-end metrics, with ``--trace 1`` the
per-layer ones.  Every cell is re-checked against the paper's invariants, its
bounds and the stored reference; the exit code is 0 only if all of that held.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# One BLAS thread: nproc is small, and a GEMV spilling onto a second core
# would turn scheduler noise into the measurement.
BLAS_THREADS = "1"
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 165.0

UNITS = {"setup_s": "s", "wall_s": "s", "run_s": "s", "check_s": "s",
         "us_per_oracle_call": "us", "cell_wall_s_p50": "s", "trace_bytes": "bytes",
         "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_per_event"):
        return "bytes/event"
    if name.endswith("_per_step"):
        return "calls/step"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=str(HERE / "reference.json"),
                        help="stored per-cell reference outputs")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def spawn(args, out: Path, *extra: str) -> dict:
    """Start one fresh worker process and return its JSON report."""

    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out),
               "--reference", args.reference, *extra]
    spawned_at = time.monotonic()
    completed = subprocess.run(command + ["--spawned-at", repr(spawned_at)], env=env,
                               cwd=ROOT, stdout=subprocess.PIPE, text=True,
                               timeout=WORKER_TIMEOUT_S)
    if completed.returncode != 0:
        raise RuntimeError(f"worker exited {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "restartfom" / "__init__.py").is_file():
        print(f"error: no restartfom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = ROOT / ".bench_out" / args.workload
    try:
        probes = [spawn(args, out, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
        result = spawn(args, out)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError,
            IndexError) as exc:
        print(f"error: benchmark worker failed: {exc}", file=sys.stderr)
        return 2

    end_to_end = dict(result["end_to_end"],
                      setup_s=statistics.median(probes + [result["end_to_end"]["setup_s"]]))
    report = result["report"]
    for key, value in report["environment"].items():
        print(f"environment {key} = {value}")
    print(f"workload {args.workload} seed {args.seed}: pool seeds {report['seeds']}, "
          f"{report['cells_per_round']} cells per round, {report['rounds']} untraced "
          f"and {report['traced_rounds']} traced rounds, each cell priced at its "
          "fastest round")
    for index, timings in enumerate(report["round_timings"]):
        print(f"round {index}: " + ", ".join(f"{key} {value:.4f} s"
                                              for key, value in timings.items()))
    for name, value in end_to_end.items():
        print(f"{name} = {value!r} {UNITS[name]}")
    print(f"cell_wall_s_p50 over {report['cell_wall_samples']} cell samples")
    if report["cell_wall_samples"] >= 100:
        print(f"cell_wall_s_p90 = {report['cell_wall_s_p90']!r} s")
    print(f"verify_s = {report['verify_s']!r} s")
    print(f"oracle_calls_total = {report['oracle_calls_total']} count (reference-checked)")
    print(f"sim_time_total = {report['sim_time_total']!r} simulated units "
          "(reference-checked)")
    print(f"failed_frac = {report['failed_frac']!r} "
          f"({result['failed']} of {result['attempted']} cells)")
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in result["per_layer"].items()}
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in end_to_end.items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
