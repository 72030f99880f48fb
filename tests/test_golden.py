"""Golden trajectories: every engine's simulated numbers, pinned.

Each run below is one problem family × one method it supports × one
scheme, plus a norm-power ``subgrad`` run on a ``Ball`` and on a ``Box``
domain through each engine (configs cannot reach those domains).  The
pinned ``time_to_eps``, ``oracle_calls_total``, ``messages_total`` and
``restarts_per_copy`` are exact: a change to an oracle, a method step or
an engine that must not move a simulated number leaves every entry equal.
"""

import numpy as np
import pytest

from restartfom.async_scheme import DelayModel, run_async
from restartfom.methods import MethodSpec
from restartfom.problems import (
    Ball,
    Box,
    make_least_squares_problem,
    make_norm_power_problem,
    make_piecewise_max_problem,
)
from restartfom.sync_scheme import run_sync

EPS = 2.0 ** -8
GAP = 30.0

FAMILIES = {
    "norm-power-d1": lambda: make_norm_power_problem(3, 1.0, 1.0),
    "norm-power-d1.5": lambda: make_norm_power_problem(3, 1.0, 1.5),
    "norm-power-d2": lambda: make_norm_power_problem(3, 1.0, 2.0),
    "piecewise-max": lambda: make_piecewise_max_problem(10, 30, seed=2),
    "least-squares": lambda: make_least_squares_problem(8, 12, seed=3),
}

METHODS = {
    "subgrad": MethodSpec("subgrad"),
    # Above both smooth instances' L (2 and 4): at its own L accel solves a
    # norm-power quadratic in one step.
    "accel": MethodSpec("accel", L=5.0),
    "univ": MethodSpec("univ", L0=1.0),
}

# The methods each family supports; norm-power's d picks the smooth instance
# accel needs and the Hölder one univ is made for.
MATRIX = [("norm-power-d1", "subgrad"), ("norm-power-d2", "accel"),
          ("norm-power-d1.5", "univ"), ("piecewise-max", "subgrad"),
          ("piecewise-max", "univ"), ("least-squares", "subgrad"),
          ("least-squares", "accel"), ("least-squares", "univ")]

SCHEMES = {
    "sync-lockstep": lambda p, spec, x0: run_sync(p, spec, EPS, x0=x0, mode="lockstep"),
    "sync-sequential": lambda p, spec, x0: run_sync(p, spec, EPS, x0=x0, mode="sequential"),
    "async-deterministic": lambda p, spec, x0: run_async(
        p, spec, EPS, x0=x0, delay_model=DelayModel(tau_pause=4.0)),
    "async-single-server": lambda p, spec, x0: run_async(
        p, spec, EPS, x0=x0, delay_model=DelayModel(
            transit_kind="single-server", service_time=0.5, pause_kind="uniform",
            tau_pause=2.0, seed=3)),
    "async-uniform-per-iteration": lambda p, spec, x0: run_async(
        p, spec, EPS, x0=x0, delay_model=DelayModel(
            transit_kind="uniform", tau_transit=2.0, pause_kind="deterministic",
            tau_pause=1.0, iteration_cost="per-iteration", seed=5)),
}

DOMAINS = {
    "ball": lambda: make_norm_power_problem(
        3, 1.0, 1.0, center=np.array([0.5, -0.5, 0.0]),
        domain=Ball(np.zeros(3), 2.0)),
    "box": lambda: make_norm_power_problem(
        3, 1.0, 1.0, center=np.array([0.5, 0.0, -0.5]),
        domain=Box(np.full(3, -1.0), np.full(3, 2.0))),
}
DOMAIN_X0 = {"ball": [1.2, 1.4, -0.6], "box": [2.0, -1.0, 1.5]}


def _outcome(summary) -> tuple:
    restarts = tuple(summary["restarts_per_copy"][key]
                     for key in sorted(summary["restarts_per_copy"], key=int))
    return (summary["time_to_eps"], summary["oracle_calls_total"],
            summary["messages_total"], restarts)


def run_matrix(family: str, method: str, scheme: str) -> tuple:
    problem = FAMILIES[family]()
    x0 = problem.point_at_gap(GAP, rng=np.random.default_rng(0))
    return _outcome(SCHEMES[scheme](problem, METHODS[method], x0)[1])


def run_domain(domain: str, scheme: str) -> tuple:
    problem = DOMAINS[domain]()
    return _outcome(SCHEMES[scheme](problem, METHODS["subgrad"], DOMAIN_X0[domain])[1])


# (time_to_eps, oracle_calls_total, messages_total, restarts per copy -1..N)
GOLDEN = {
    ('norm-power-d1', 'subgrad', 'sync-lockstep'):
        (30.0, 542, 242, (27, 27, 28, 28, 28, 27, 28, 27, 27, 0)),
    ('norm-power-d1', 'subgrad', 'sync-sequential'):
        (291.0, 536, 235, (27, 27, 27, 27, 27, 27, 26, 26, 26, 0)),
    ('norm-power-d1', 'subgrad', 'async-deterministic'):
        (30.0, 162, 90, (11, 8, 8, 12, 7, 14, 2, 16, 1, 0)),
    ('norm-power-d1', 'subgrad', 'async-single-server'):
        (30.0, 291, 168, (17, 15, 20, 14, 16, 15, 20, 18, 28, 0)),
    ('norm-power-d1', 'subgrad', 'async-uniform-per-iteration'):
        (30.0, 331, 169, (18, 18, 19, 18, 20, 19, 17, 19, 17, 0)),
    ('norm-power-d2', 'accel', 'sync-lockstep'):
        (5.0, 96, 35, (4, 4, 4, 4, 4, 4, 4, 4, 4, 0)),
    ('norm-power-d2', 'accel', 'sync-sequential'):
        (41.0, 78, 27, (3, 3, 3, 3, 3, 3, 3, 3, 3, 0)),
    ('norm-power-d2', 'accel', 'async-deterministic'):
        (5.0, 42, 11, (1, 1, 1, 1, 1, 1, 1, 1, 1, 0)),
    ('norm-power-d2', 'accel', 'async-single-server'):
        (5.0, 58, 18, (2, 2, 2, 2, 2, 2, 2, 2, 1, 0)),
    ('norm-power-d2', 'accel', 'async-uniform-per-iteration'):
        (5.0, 74, 25, (3, 3, 3, 2, 3, 3, 3, 2, 3, 0)),
    ('norm-power-d1.5', 'univ', 'sync-lockstep'):
        (4.0, 128, 27, (3, 3, 3, 3, 3, 3, 3, 3, 3, 0)),
    ('norm-power-d1.5', 'univ', 'sync-sequential'):
        (31.0, 80, 19, (2, 2, 2, 2, 2, 2, 2, 2, 2, 0)),
    ('norm-power-d1.5', 'univ', 'async-deterministic'):
        (16.0, 124, 26, (3, 3, 3, 3, 3, 3, 3, 3, 2, 0)),
    ('norm-power-d1.5', 'univ', 'async-single-server'):
        (16.0, 184, 32, (4, 4, 4, 4, 4, 4, 3, 3, 3, 0)),
    ('norm-power-d1.5', 'univ', 'async-uniform-per-iteration'):
        (4.0, 80, 19, (2, 2, 2, 2, 2, 2, 2, 2, 2, 0)),
    ('piecewise-max', 'subgrad', 'sync-lockstep'):
        (167.0, 2342, 674, (138, 131, 115, 99, 89, 73, 60, 47, 35, 0)),
    ('piecewise-max', 'subgrad', 'sync-sequential'):
        (1598.0, 2240, 644, (131, 124, 109, 93, 85, 70, 57, 46, 35, 0)),
    ('piecewise-max', 'subgrad', 'async-deterministic'):
        (182.0, 1151, 295, (28, 61, 24, 55, 22, 43, 16, 40, 9, 0)),
    ('piecewise-max', 'subgrad', 'async-single-server'):
        (166.42913543719914, 1563, 469, (86, 85, 79, 66, 63, 45, 46, 35, 25, 0)),
    ('piecewise-max', 'subgrad', 'async-uniform-per-iteration'):
        (159.39413765160785, 1748, 489, (92, 88, 78, 69, 62, 54, 45, 40, 28, 0)),
    ('piecewise-max', 'univ', 'sync-lockstep'):
        (102.0, 6088, 352, (79, 73, 64, 53, 43, 37, 29, 22, 18, 0)),
    ('piecewise-max', 'univ', 'sync-sequential'):
        (957.0, 5932, 316, (70, 65, 57, 47, 38, 33, 26, 20, 17, 0)),
    ('piecewise-max', 'univ', 'async-deterministic'):
        (476.0, 4596, 233, (43, 38, 37, 33, 30, 25, 22, 18, 17, 0)),
    ('piecewise-max', 'univ', 'async-single-server'):
        (450.4052064012977, 5124, 349, (59, 59, 53, 49, 45, 40, 35, 32, 23, 0)),
    ('piecewise-max', 'univ', 'async-uniform-per-iteration'):
        (99.83820041761933, 4850, 277, (58, 53, 48, 45, 33, 29, 21, 21, 14, 0)),
    ('least-squares', 'subgrad', 'sync-lockstep'):
        (39.0, 575, 178, (23, 23, 22, 22, 21, 21, 19, 18, 17, 0)),
    ('least-squares', 'subgrad', 'sync-sequential'):
        (345.0, 498, 144, (16, 16, 16, 16, 16, 17, 16, 16, 16, 0)),
    ('least-squares', 'subgrad', 'async-deterministic'):
        (57.0, 330, 106, (6, 18, 6, 18, 6, 19, 5, 16, 3, 0)),
    ('least-squares', 'subgrad', 'async-single-server'):
        (50.91003463708399, 484, 164, (22, 20, 20, 18, 19, 21, 19, 15, 17, 0)),
    ('least-squares', 'subgrad', 'async-uniform-per-iteration'):
        (44.69959685676566, 520, 180, (23, 21, 23, 20, 22, 22, 19, 20, 18, 0)),
    ('least-squares', 'accel', 'sync-lockstep'):
        (10.0, 179, 64, (9, 9, 9, 9, 8, 7, 7, 6, 5, 0)),
    ('least-squares', 'accel', 'sync-sequential'):
        (91.0, 163, 58, (8, 8, 8, 8, 7, 7, 6, 5, 5, 0)),
    ('least-squares', 'accel', 'async-deterministic'):
        (10.0, 65, 20, (2, 2, 2, 2, 2, 2, 2, 3, 1, 0)),
    ('least-squares', 'accel', 'async-single-server'):
        (10.0, 100, 35, (4, 5, 4, 4, 3, 4, 4, 4, 3, 0)),
    ('least-squares', 'accel', 'async-uniform-per-iteration'):
        (10.0, 126, 46, (5, 6, 6, 5, 5, 5, 5, 6, 4, 0)),
    ('least-squares', 'univ', 'sync-lockstep'):
        (5.0, 244, 29, (4, 4, 4, 4, 4, 3, 3, 3, 2, 0)),
    ('least-squares', 'univ', 'sync-sequential'):
        (45.0, 228, 25, (3, 3, 3, 3, 3, 3, 3, 3, 2, 0)),
    ('least-squares', 'univ', 'async-deterministic'):
        (31.0, 252, 25, (3, 3, 3, 3, 3, 3, 3, 3, 2, 0)),
    ('least-squares', 'univ', 'async-single-server'):
        (24.10756800665969, 242, 26, (4, 3, 3, 3, 4, 3, 3, 3, 2, 0)),
    ('least-squares', 'univ', 'async-uniform-per-iteration'):
        (6.0, 230, 25, (3, 4, 3, 3, 3, 3, 3, 2, 2, 0)),
}

GOLDEN_DOMAINS = {
    ('ball', 'sync-lockstep'): (12.0, 188, 62, (11, 11, 11, 11, 10, 7, 5, 3, 3, 0)),
    ('ball', 'async-single-server'): (29.21214533473533, 282, 87, (16, 16, 16, 15, 13, 10, 9, 4, 3, 0)),
    ('box', 'sync-lockstep'): (15.0, 230, 72, (14, 14, 14, 11, 10, 8, 6, 4, 3, 0)),
    ('box', 'async-single-server'): (31.450370491151094, 307, 94, (21, 18, 17, 15, 16, 8, 9, 6, 3, 0)),
}


@pytest.mark.parametrize("family, method", MATRIX)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_family_method_scheme_trajectory_is_pinned(family, method, scheme):
    assert run_matrix(family, method, scheme) == GOLDEN[family, method, scheme]


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("scheme", ["sync-lockstep", "async-single-server"])
def test_constrained_domain_trajectory_is_pinned(domain, scheme):
    assert run_domain(domain, scheme) == GOLDEN_DOMAINS[domain, scheme]
