"""Rebuild ``reference.json``: the per-cell outputs every benchmark run must match.

Run from the repository root:

    python3 bench/make_reference.py [WORKLOAD ...]

It runs every cell of each workload's seed pool through ``harness.run_cell``
and keeps the balanced seeds (see ``workloads.py``).  For each of their
cells it stores ``time_to_eps``, ``oracle_calls_total``, ``messages_total``
and ``restarts_per_copy``.  Those are the simulated quantities the paper's
theorems bound, so a change that only makes the program faster must leave
them bit-for-bit equal; rebuild the reference only when a change is meant to
alter them, and say so.
"""
from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from restartfom.harness import parse_config, run_cell  # noqa: E402

import workloads  # noqa: E402

REFERENCE_PATH = HERE / "reference.json"


def build(workload: str) -> dict[str, list]:
    cells = {}
    for index, document in enumerate(workloads.pool_grids(workload)):
        config = parse_config(document)
        for eps in config.eps:
            for seed in config.seeds:
                summary = run_cell(config, eps, seed)
                if summary.error is not None or summary.compliant is False:
                    raise SystemExit(f"{workload} cell {index} eps={eps!r} seed={seed}: "
                                     f"error={summary.error} compliant={summary.compliant}")
                cells[workloads.cell_key(index, eps, seed)] = workloads.cell_record(summary)
        print(f"{workload}: grid {index} done", file=sys.stderr, flush=True)
    kept = balanced(cells)
    print(f"{workload}: kept seeds {sorted(kept)}", file=sys.stderr, flush=True)
    return {key: record for key, record in cells.items()
            if workloads.cell_seed(key) in kept}


def balanced(cells: dict[str, list]) -> set[int]:
    """Seeds whose oracle calls and point events are both near the pool median.

    Point events are the trace events that carry an iterate (messages and
    restarts); they decide most of a trace file's size.
    """

    calls: dict[int, int] = {}
    points: dict[int, int] = {}
    for key, (_, oracle_calls, messages, restarts) in cells.items():
        seed = workloads.cell_seed(key)
        calls[seed] = calls.get(seed, 0) + oracle_calls
        points[seed] = points.get(seed, 0) + messages + sum(restarts)
    tolerance = workloads.BALANCE_TOLERANCE
    kept = set(calls)
    for work in (calls, points):
        median = statistics.median(work.values())
        kept &= {seed for seed, value in work.items()
                 if abs(value - median) <= tolerance * median}
    return kept


def write_reference(reference: dict) -> None:
    """One cell per line, so a changed cell shows as a one-line diff."""

    with open(REFERENCE_PATH, "w") as handle:
        handle.write("{\n")
        for i, name in enumerate(sorted(reference)):
            handle.write(f" {json.dumps(name)}: {{\n")
            items = sorted(reference[name].items())
            for j, (key, record) in enumerate(items):
                comma = "," if j + 1 < len(items) else ""
                handle.write(f"  {json.dumps(key)}: {json.dumps(record)}{comma}\n")
            handle.write(" }" + ("," if i + 1 < len(reference) else "") + "\n")
        handle.write("}\n")


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    reference = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    for name in names:
        reference[name] = build(name)
    write_reference(reference)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
