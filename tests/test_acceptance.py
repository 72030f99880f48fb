"""Acceptance suite: one test per pinned claim about the benchmark.

Criteria covered, one test each:
  1. the subgradient method's iteration certificate on f(x) = ||x||;
  2. lockstep runs stay within the scheme's period guarantee;
  3. the subgrad guarantee's evaluated totals scale as log2(1/eps) and the
     measurement sits under them at the finest accuracy;
  4. accelerated runs on smooth strongly-convex least squares stay within
     their closed-form guarantee and their measured times carry the log shape;
  5. asynchronous universal-method runs stay within the simulated-time
     guarantee under deterministic delays;
  6. as delays collapse, the asynchronous engine reproduces the lockstep
     run's restart points exactly;
  7. every trace from criteria 2-6 passes the full invariant checker;
  8. every grid cell re-run with the same seed yields byte-identical traces.
"""

import math
import time

import numpy as np
import pytest

from restartfom.async_scheme import DelayModel, run_async
from restartfom.bounds import default_N, l0_admissible
from restartfom.harness import fit_rate, parse_config, run_cell, run_grid
from restartfom.methods import MethodSpec, method_init, step
from restartfom.problems import make_norm_power_problem
from restartfom.sync_scheme import run_sync
from restartfom.traces import SchemeTrace, check_trace

EPS_GRID = [2.0 ** -k for k in range(1, 11)]

FINEST = 2.0 ** -10

R_SQUARED_FLOOR = 0.9


# ---------------------------------------------------------------------------
# Shared experiment grids (session-scoped: criteria 3, 7, and 8 reuse them)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def criterion2_grids(tmp_path_factory):
    """Sharp-growth lockstep/subgrad cells: mu x gap x eps, default ladder."""

    grids = {}
    for mu in (0.5, 1.0, 2.0):
        for gap in (3.0, 30.0):
            document = {
                "problem": {"family": "norm-power", "dimension": 3,
                            "mu": mu, "d": 1.0, "gap": gap},
                "method": "subgrad",
                "scheme": "sync-lockstep",
                "eps": EPS_GRID,
            }
            out = tmp_path_factory.mktemp(f"c2-mu{mu}-gap{gap}")
            summaries = run_grid(parse_config(document), out_dir=out)
            grids[(mu, gap)] = {"document": document, "out": out,
                                "summaries": summaries}
    return grids


@pytest.fixture(scope="session")
def criterion4_grid(tmp_path_factory):
    """Smooth strongly-convex least-squares cells run with accel."""

    document = {
        "problem": {"family": "least-squares", "dimension": 30, "num_rows": 45,
                    "gap": 30.0, "sigma_range": [1.0, 10.0]},
        "method": "accel",
        "scheme": "sync-lockstep",
        "eps": EPS_GRID,
        "seed": 1,
    }
    out = tmp_path_factory.mktemp("c4")
    summaries = run_grid(parse_config(document), out_dir=out)
    return {"document": document, "out": out, "summaries": summaries}


def _admissible_l0(metadata) -> float:
    """Half the largest curvature guess the universal method's oracle-call
    budget tolerates across every rung of the default ladder (the binding
    rung is the top one, whose accuracy is 1.0 on dyadic grids)."""

    if metadata.nu == 1.0:
        return 0.5 * metadata.M_nu
    ratio = (1.0 - metadata.nu) / (1.0 + metadata.nu)
    return 0.5 * ratio ** ratio * metadata.M_nu ** (2.0 / (1.0 + metadata.nu))


@pytest.fixture(scope="session")
def criterion5_grids(tmp_path_factory):
    """Asynchronous universal-method cells under deterministic delays."""

    grids = []
    for nu, mu, gap in [(0.5, 1.0, 3.0), (1.0, 1.0, 3.0),
                        (0.5, 0.5, 30.0), (1.0, 2.0, 30.0)]:
        metadata = make_norm_power_problem(3, mu, 1.0 + nu).metadata
        L0 = _admissible_l0(metadata)
        document = {
            "problem": {"family": "norm-power", "dimension": 3,
                        "mu": mu, "d": 1.0 + nu, "gap": gap},
            "method": {"kind": "univ", "L0": L0},
            "scheme": "async",
            "eps": EPS_GRID,
            "delay": {"transit_kind": "deterministic", "tau_transit": 1.0,
                      "pause_kind": "deterministic", "tau_pause": 4.0},
        }
        out = tmp_path_factory.mktemp(f"c5-nu{nu}-mu{mu}-gap{gap}")
        summaries = run_grid(parse_config(document), out_dir=out)
        grids.append({"nu": nu, "mu": mu, "gap": gap, "L0": L0,
                      "metadata": metadata, "document": document,
                      "out": out, "summaries": summaries})
    return grids


def dyadic_instance(seed: int):
    """A seeded sharp instance whose rung targets stay dyadic, so the
    delay-collapsed asynchronous run must retrace the lockstep run."""

    rng = np.random.default_rng(seed)
    mu = float(rng.choice([0.5, 1.0, 2.0]))
    center = float(rng.integers(-2, 3))
    gap = float(rng.choice([2.5, 3.0, 4.0]))
    side = 1.0 if rng.random() < 0.5 else -1.0
    problem = make_norm_power_problem(1, mu, 1.0, center=[center])
    x0 = np.array([center + side * gap / mu])
    return problem, x0


@pytest.fixture(scope="session")
def criterion6_runs():
    """Paired async-limit and lockstep runs on five seeded instances."""

    limit = DelayModel(transit_kind="deterministic", tau_transit=1.0,
                       pause_kind="deterministic", tau_pause=1e-6,
                       iteration_cost="per-iteration")
    eps = 0.25
    runs = []
    for seed in range(5):
        problem, x0 = dyadic_instance(seed)
        async_trace, async_summary = run_async(problem, "subgrad", eps,
                                               x0=x0, delay_model=limit)
        sync_trace, sync_summary = run_sync(problem, "subgrad", eps, x0=x0)
        runs.append({"seed": seed, "eps": eps,
                     "async": (async_trace, async_summary),
                     "sync": (sync_trace, sync_summary)})
    return runs


# ---------------------------------------------------------------------------
# Criterion 1: subgradient iteration certificate
# ---------------------------------------------------------------------------


def test_criterion_1_subgradient_iteration_certificate():
    # f(x) = ||x|| in R^10 (M = mu = 1): the minimum over the first
    # floor((M * delta / eps_bar)^2) iterates must reach eps_bar exactly,
    # in under a second per (delta, eps_bar) cell.
    problem = make_norm_power_problem(10, 1.0, 1.0)
    for delta in (1.0, 10.0):
        for eps_bar in (1e-1, 1e-2):
            started = time.perf_counter()
            x0 = problem.point_at_gap(delta, rng=np.random.default_rng(0))
            budget = math.floor((1.0 * delta / eps_bar) ** 2)

            state = method_init(MethodSpec("subgrad"), problem, x0, eps_bar)
            iterations = 0
            best = state.best_value
            while best > eps_bar and iterations < budget:
                step(state, problem)
                iterations += 1
                best = min(best, problem.value(state.current_iterate))
            assert best <= eps_bar, (
                f"delta={delta} eps_bar={eps_bar}: after {iterations} of "
                f"{budget} allowed iterations the best value is {best!r}")
            elapsed = time.perf_counter() - started
            assert elapsed < 1.0, (
                f"delta={delta} eps_bar={eps_bar}: cell took {elapsed:.3f}s, "
                f"over the 1s budget")


# ---------------------------------------------------------------------------
# Criterion 2: lockstep periods within the scheme guarantee
# ---------------------------------------------------------------------------


def test_criterion_2_lockstep_periods_within_theorem_bound(criterion2_grids):
    for (mu, gap), grid in criterion2_grids.items():
        for summary in grid["summaries"]:
            assert summary.error is None, summary.error
            assert summary.complete, (mu, gap, summary.eps)
            assert summary.bound_theorem is not None, (mu, gap, summary.eps)
            assert summary.time_to_eps <= summary.bound_theorem, (
                f"mu={mu} gap={gap} eps={summary.eps!r}: measured "
                f"{summary.time_to_eps!r} periods exceed the guarantee "
                f"{summary.bound_theorem!r}")


# ---------------------------------------------------------------------------
# Criterion 3: log-shaped guarantee, measurement under it
# ---------------------------------------------------------------------------


def test_criterion_3_subgrad_guarantee_scales_as_log(criterion2_grids):
    # On these instances the subgradient step walks straight to the optimum
    # (the top rung's target divides the gap), so the measured time is flat
    # in eps; the log(1/eps) shape lives in the guarantee's evaluated totals,
    # and the measurement has to sit under them.  The decision ledger for
    # this repository records the full analysis.
    for (mu, gap), grid in criterion2_grids.items():
        summaries = grid["summaries"]
        fit = fit_rate(summaries, "log", field="bound_corollary")
        assert fit.r_squared >= R_SQUARED_FLOOR, (
            f"mu={mu} gap={gap}: corollary totals fit log2(1/eps) with "
            f"R^2 = {fit.r_squared:.4f} < {R_SQUARED_FLOOR}")
        assert fit.slope > 0.0
        [finest] = [s for s in summaries if s.eps == FINEST]
        assert finest.bound_corollary is not None
        assert finest.time_to_eps <= finest.bound_corollary, (
            f"mu={mu} gap={gap}: measured {finest.time_to_eps!r} at the "
            f"finest accuracy exceeds the corollary total "
            f"{finest.bound_corollary!r}")


# ---------------------------------------------------------------------------
# Criterion 4: accel on least squares, bound and measured log shape
# ---------------------------------------------------------------------------


def test_criterion_4_accel_within_corollary_and_log_shaped(criterion4_grid):
    summaries = criterion4_grid["summaries"]
    for summary in summaries:
        assert summary.error is None, summary.error
        assert summary.complete
        assert summary.bound_corollary is not None
        assert summary.time_to_eps <= summary.bound_corollary, (
            f"eps={summary.eps!r}: measured {summary.time_to_eps!r} exceeds "
            f"the accel corollary total {summary.bound_corollary!r}")
        assert summary.compliant is True
    fit = fit_rate(summaries, "log")  # measured times carry the signal here
    assert fit.r_squared >= R_SQUARED_FLOOR, (
        f"measured times fit log2(1/eps) with R^2 = {fit.r_squared:.4f} "
        f"< {R_SQUARED_FLOOR}")
    assert fit.slope > 0.0


# ---------------------------------------------------------------------------
# Criterion 5: async universal method within the simulated-time guarantee
# ---------------------------------------------------------------------------


def test_criterion_5_async_univ_within_theorem_bound(criterion5_grids):
    for grid in criterion5_grids:
        metadata, L0 = grid["metadata"], grid["L0"]
        for summary in grid["summaries"]:
            assert summary.error is None, summary.error
            assert summary.complete, (grid["nu"], summary.eps)
            # The curvature guess must be admissible at every rung accuracy.
            for rung in range(-1, summary.N + 1):
                assert l0_admissible(metadata.M_nu, metadata.nu,
                                     (2.0 ** rung) * summary.eps, L0)
            assert summary.bound_theorem is not None
            assert summary.time_to_eps <= summary.bound_theorem, (
                f"nu={grid['nu']} mu={grid['mu']} gap={grid['gap']} "
                f"eps={summary.eps!r}: simulated {summary.time_to_eps!r} "
                f"exceeds the guarantee {summary.bound_theorem!r}")


# ---------------------------------------------------------------------------
# Criterion 6: delay-collapsed async equals lockstep, point for point
# ---------------------------------------------------------------------------


def test_criterion_6_async_limit_reproduces_lockstep_restarts(criterion6_runs):
    for run in criterion6_runs:
        async_trace, _ = run["async"]
        sync_trace, _ = run["sync"]
        copies = sync_trace.copies()
        assert copies == async_trace.copies()
        for copy in copies:
            assert (async_trace.restart_points(copy)
                    == sync_trace.restart_points(copy)), (
                f"seed {run['seed']}: copy {copy} restarts at different "
                f"points in the collapsed-delay run")


# ---------------------------------------------------------------------------
# Criterion 7: trace invariants on every run above
# ---------------------------------------------------------------------------


def test_criterion_7_trace_invariants_hold_everywhere(
        criterion2_grids, criterion4_grid, criterion5_grids, criterion6_runs):
    checked = 0

    def check_stored(grid, tau_pause=None, tau_transit=None):
        nonlocal checked
        for summary in grid["summaries"]:
            trace, _ = SchemeTrace.read_jsonl(grid["out"] / summary.trace_path)
            violations = check_trace(trace, eps=summary.eps, N=summary.N,
                                     f_star=0.0, tau_pause=tau_pause,
                                     tau_transit=tau_transit)
            assert not violations, (summary.trace_path, violations[:3])
            checked += 1

    for grid in criterion2_grids.values():
        check_stored(grid)
    check_stored(criterion4_grid)
    for grid in criterion5_grids:
        check_stored(grid, tau_pause=4.0, tau_transit=1.0)
    for run in criterion6_runs:
        async_trace, async_summary = run["async"]
        violations = check_trace(async_trace, eps=run["eps"],
                                 N=async_summary["N"], f_star=0.0,
                                 tau_pause=1e-6, tau_transit=1.0)
        assert not violations, (run["seed"], violations[:3])
        sync_trace, sync_summary = run["sync"]
        violations = check_trace(sync_trace, eps=run["eps"],
                                 N=sync_summary["N"], f_star=0.0)
        assert not violations, (run["seed"], violations[:3])
        checked += 2

    assert checked == 120  # 60 + 10 + 40 stored cells, 5 async + 5 sync pairs


# ---------------------------------------------------------------------------
# Criterion 8: same-seed re-runs are byte-identical
# ---------------------------------------------------------------------------


def test_criterion_8_rerun_traces_byte_identical(
        tmp_path, criterion2_grids, criterion4_grid, criterion5_grids):
    grids = list(criterion2_grids.values()) + [criterion4_grid] + criterion5_grids
    compared = 0
    for index, grid in enumerate(grids):
        config = parse_config(grid["document"])
        redo = tmp_path / f"redo-{index}"
        redo.mkdir()
        for summary in grid["summaries"]:
            run_cell(config, summary.eps, summary.seed, out_dir=redo)
            original = (grid["out"] / summary.trace_path).read_bytes()
            rerun = (redo / summary.trace_path).read_bytes()
            assert original, summary.trace_path
            assert original == rerun, (
                f"{summary.trace_path}: same-seed re-run differs")
            compared += 1
    assert compared == 110
