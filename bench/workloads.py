"""The benchmark's two workloads as restartfom configuration documents.

Each workload is a list of grid configs (JSON objects the ``restartfom grid``
command accepts).  A run seed draws one instance seed from those the stored
reference (``reference.json``) covers.  ``make_reference.py`` keeps only the
balanced part of a larger pool: the seeds whose oracle calls and whose
point-carrying trace events (messages and restarts), each summed over the
workload's cells, lie within ``BALANCE_TOLERANCE`` of the pool median.  Work
varies by up to 3x across the whole pool; drawing from the balanced part keeps
every run's work within a few percent of every other's, so the timings
reflect the program and not which instance the seed happened to pick.
"""
from __future__ import annotations

import random

PWMAX_D200 = "pwmax-lockstep-d200"
LADDER_MIX_SMALL = "ladder-mix-small"

WORKLOADS = (PWMAX_D200, LADDER_MIX_SMALL)

WHY = {
    PWMAX_D200: "oracle GEMVs on a 600x200 matrix, per-point tuple conversion in the "
                "lockstep engine and JSONL traces of 200-float points dominate",
    LADDER_MIX_SMALL: "50 short cells a round: fixed per-cell costs (problem construction, "
                      "bounds, file creation, CSV/JSON, verify) and many small traces",
}

# make_reference.py runs every seed of the pool and keeps the balanced ones.
POOL_SIZE = {PWMAX_D200: 64, LADDER_MIX_SMALL: 48}

BALANCE_TOLERANCE = 0.04

LADDER_EPS = [2.0 ** -k for k in range(1, 11)]


def _grids(workload: str, seeds: list[int]) -> list[dict]:
    if workload == PWMAX_D200:
        return [{
            "problem": {"family": "piecewise-max", "dimension": 200,
                        "num_pieces": 600, "gap": 30.0},
            "method": "subgrad", "scheme": "sync-lockstep",
            "eps": [2.0 ** -6], "seeds": seeds,
        }]
    if workload == LADDER_MIX_SMALL:
        sharp = {"family": "norm-power", "dimension": 3, "mu": 1.0, "d": 1.0, "gap": 30.0}
        common = {"eps": LADDER_EPS, "seeds": seeds}
        return [
            {"problem": sharp, "method": "subgrad", "scheme": "sync-lockstep", **common},
            {"problem": sharp, "method": "subgrad", "scheme": "sync-sequential", **common},
            {"problem": {"family": "least-squares", "dimension": 30, "num_rows": 45,
                         "gap": 30.0},
             "method": "accel", "scheme": "sync-lockstep", **common},
            {"problem": {"family": "norm-power", "dimension": 3, "mu": 1.0, "d": 1.5,
                         "gap": 30.0},
             "method": {"kind": "univ", "L0": 1.0}, "scheme": "async", **common,
             "delay": {"transit_kind": "deterministic", "tau_transit": 1.0,
                       "pause_kind": "deterministic", "tau_pause": 4.0}},
            {"problem": {"family": "piecewise-max", "dimension": 20, "num_pieces": 60,
                         "gap": 30.0},
             "method": "subgrad", "scheme": "async", **common,
             "delay": {"transit_kind": "single-server", "service_time": 0.5,
                       "pause_kind": "uniform", "tau_pause": 2.0}},
        ]
    raise KeyError(f"unknown workload {workload!r}")


def pool_grids(workload: str) -> list[dict]:
    """Grid configs covering every pool seed; the reference is built from these."""

    return _grids(workload, list(range(POOL_SIZE[workload])))


def cell_key(grid_index: int, eps: float, seed: int) -> str:
    """A cell's key in the reference: its grid's index, its eps and its seed."""

    return f"{grid_index}|{eps!r}|{seed}"


def cell_record(summary) -> list:
    """The reference fields of one cell's ``RunSummary``, in a fixed order."""

    restarts = [summary.restarts_per_copy[key]
                for key in sorted(summary.restarts_per_copy, key=int)]
    return [summary.time_to_eps, summary.oracle_calls_total,
            summary.messages_total, restarts]


def cell_seed(key: str) -> int:
    """The instance seed of a reference cell key."""

    return int(key.rsplit("|", 1)[1])


def round_grids(workload: str, seed: int, reference: dict[str, list]) -> list[dict]:
    """The grid configs one round of ``workload`` runs for run seed ``seed``.

    ``reference`` is the workload's table in ``reference.json``; the instance
    seed is drawn from the seeds it covers.
    """

    seeds = sorted({cell_seed(key) for key in reference})
    return _grids(workload, [random.Random(seed).choice(seeds)])
