"""Closed-form bound evaluation: budgets, ladder geometry, scheme reports."""

import dataclasses
import math
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from restartfom.bounds import (
    EPS_MIN,
    REGIME_ADD_ON,
    REGIME_STAGED,
    bound_async_theorem,
    bound_cor_accel,
    bound_cor_subgrad,
    bound_cor_univ,
    bound_sync_theorem,
    c_const,
    default_N,
    k_accel,
    k_subgrad,
    k_univ,
    l0_admissible,
    n_bar,
    t_univ,
)
from restartfom.errors import ParameterError, UnsupportedQueryError
from restartfom.problems import GrowthMetadata


def check_report(report):
    assert report.total == pytest.approx(sum(v for _, v in report.terms), rel=1e-12)
    assert report.N_bar >= -1
    return report


# ---------------------------------------------------------------------------
# Per-method budgets
# ---------------------------------------------------------------------------


def test_k_subgrad_examples():
    assert k_subgrad(1.0, 1.0, 0.1) == 100
    assert k_subgrad(2.0, 3.0, 6.0) == 1
    assert k_subgrad(1.0, 1.0, 1.5) == 0  # target beyond M*delta


def test_k_accel_examples():
    assert k_accel(4.0, 1.0, 1.0) == 4
    assert k_accel(1.0, 1.0, 4.0) == 1
    assert k_accel(2.0, 1.0, 0.25) == 5  # floor(2*sqrt(8))


def test_k_univ_examples():
    assert k_univ(1.0, 1.0, 1.0, 1.0) == 4
    assert k_univ(1.0, 0.0, 1.0, 1.0) == 8


@given(st.floats(0.1, 50), st.floats(0.1, 20), st.floats(0.01, 10))
@example(L=9.999999999999998, delta=0.1, eps_bar=0.1)
def test_k_univ_smooth_case_is_twice_k_accel_up_to_floor(L, delta, eps_bar):
    # With nu = 1 and M_1 = L the universal budget is floor(4*delta*sqrt(L/e)),
    # which is twice the accelerated budget up to floor rounding.
    coarse = k_accel(L, delta, eps_bar)
    fine = k_univ(L, 1.0, delta, eps_bar)
    assert fine in (2 * coarse, 2 * coarse + 1)


def test_budget_input_validation():
    with pytest.raises(ParameterError):
        k_subgrad(0.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        k_accel(1.0, -1.0, 1.0)
    with pytest.raises(ParameterError):
        k_univ(1.0, 1.5, 1.0, 1.0)
    with pytest.raises(ParameterError):
        t_univ(1.0, 1.0, 1.0, 0.0, 1.0)


def test_c_const_examples():
    assert c_const(1.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(4.0)
    assert c_const(1.0, 1.0, 1.0, 4.0, 1.0) == pytest.approx(6.0)
    assert c_const(1.0, 2.0, 0.0, 1.0, 1.0) == pytest.approx(4.0)


def test_c_const_independent_of_eps_and_delta_when_nu_is_one():
    a = c_const(0.3, 0.01, 1.0, 2.5, 0.7)
    b = c_const(9.0, 8.0, 1.0, 2.5, 0.7)
    assert a == pytest.approx(b, rel=1e-12)


def test_t_univ_example():
    assert t_univ(1.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(20.0)


def test_t_univ_matches_four_k_plus_c_decomposition():
    # T(delta, 2**n * eps) <= 4*K(delta, 2**n * eps) + C(delta, eps) for
    # n >= -1, with equality at n = -1 where the log arguments coincide.
    for nu in (0.0, 0.3, 0.5, 1.0):
        for M_nu in (0.7, 2.0):
            for delta in (0.4, 3.0):
                for eps in (0.125, 1.0, 3.0):
                    L0 = 0.5
                    cap = c_const(delta, eps, nu, M_nu, L0)
                    for n in range(-1, 6):
                        eps_n = 2.0 ** n * eps
                        t = t_univ(M_nu, nu, delta, eps_n, L0)
                        assert t <= 4 * k_univ(M_nu, nu, delta, eps_n) + cap + 1e-9
                    t_last = t_univ(M_nu, nu, delta, 0.5 * eps, L0)
                    assert t_last == pytest.approx(
                        4 * k_univ(M_nu, nu, delta, 0.5 * eps) + cap, rel=1e-12)


def test_l0_admissibility():
    assert l0_admissible(2.0, 1.0, 0.5, 2.0)
    assert not l0_admissible(2.0, 1.0, 0.5, 2.0001)
    # nu = 0.5, M_nu = 1.5*sqrt(2), eps_bar = 0.5: threshold frozen from an
    # independent evaluation at 2.3811015779522995.
    m = 1.5 * math.sqrt(2.0)
    assert l0_admissible(m, 0.5, 0.5, 2.38)
    assert not l0_admissible(m, 0.5, 0.5, 2.3812)


def test_budget_monotonicity_grids():
    deltas = [0.1, 0.5, 1.0, 2.0, 7.0]
    eps_bars = [4.0, 1.0, 0.5, 0.125, 0.01]
    for fn in (lambda d, e: k_subgrad(1.3, d, e),
               lambda d, e: k_accel(2.0, d, e),
               lambda d, e: k_univ(1.7, 0.5, d, e),
               lambda d, e: t_univ(1.7, 0.5, d, e, 0.2)):
        for e in eps_bars:
            vals = [fn(d, e) for d in deltas]
            assert vals == sorted(vals)
        for d in deltas:
            vals = [fn(d, e) for e in eps_bars]  # eps decreasing -> nondecreasing
            assert vals == sorted(vals)


# ---------------------------------------------------------------------------
# Ladder geometry
# ---------------------------------------------------------------------------


def test_default_N_examples():
    assert default_N(0.01) == 7
    assert default_N(1.0) == 0
    assert default_N(4.0) == -1


def test_default_N_dyadic_exact():
    for n in range(0, 40):
        assert default_N(2.0 ** (-n)) == n


def test_n_bar_examples():
    assert n_bar(3.0, 1.0) == 0
    assert n_bar(2.0, 1.0) == -1
    assert n_bar(100.0, 1.0) == 5


@given(st.floats(1e-6, 1e6), st.floats(1e-4, 1e3))
def test_n_bar_is_unique_bracketing_integer(gap, eps):
    nb = n_bar(gap, eps)
    assert nb >= -1
    assert gap < 5.0 * 2.0 ** nb * eps
    if nb > -1:
        assert gap >= 5.0 * 2.0 ** (nb - 1) * eps


# ---------------------------------------------------------------------------
# Synchronous reports
# ---------------------------------------------------------------------------

SHARP = GrowthMetadata(mu=1.0, d=1.0, M=1.0)


def sharp_k(delta, eps_bar):
    return k_subgrad(1.0, delta, eps_bar)


def test_sync_theorem_frozen_example():
    # f = |x|, f(x0) = 3, eps = 1, N = 0.  Independent recomputation:
    # n_bar = 0; D_{-1} = min(2.5, 3) = 2.5, D_0 = min(5, 3) = 3;
    # K(2.5, 0.5) = floor(25) = 25, K(3, 1) = 9; total = 1 + 3*(25+9) = 103.
    report = check_report(bound_sync_theorem(SHARP, 3.0, 1.0, 0, sharp_k))
    assert report.total == 103.0
    assert report.N_bar == 0
    assert report.regime == REGIME_STAGED
    assert report.assumptions_ok
    assert report.terms == [("startup", 1.0), ("copy[n=-1]", 75.0), ("copy[n=0]", 27.0)]


def test_sync_theorem_single_rung_when_gap_below_two_eps():
    report = check_report(bound_sync_theorem(SHARP, 2.0, 1.0, 0, sharp_k))
    assert report.N_bar == -1
    assert [label for label, _ in report.terms] == ["startup", "copy[n=-1]"]
    assert report.terms[0][1] == 0.0  # n_bar + 1 startup periods


def test_sync_theorem_add_on_regime():
    md = dataclasses.replace(SHARP, dist_x0_to_opt=30.0)
    report = check_report(bound_sync_theorem(md, 30.0, 1.0, 0, sharp_k))
    assert report.regime == REGIME_ADD_ON
    # The add-on equals the subgradient epoch budget from the full initial
    # distance at the top-rung target: (M*dist/(2**N*eps))**2 = 900.
    assert report.terms[-1] == ("initial-distance add-on", 900.0)
    # sums run to N, not n_bar
    assert [label for label, _ in report.terms][:4] == [
        "startup", "copy[n=-1]", "copy[n=0]", "initial-distance add-on"]
    assert report.N_bar == n_bar(30.0, 1.0) == 3


def test_sync_theorem_add_on_requires_distance():
    with pytest.raises(UnsupportedQueryError):
        bound_sync_theorem(SHARP, 30.0, 1.0, 0, sharp_k)


def test_sync_theorem_requires_metadata_and_valid_gap():
    with pytest.raises(UnsupportedQueryError):
        bound_sync_theorem(None, 3.0, 1.0, 0, sharp_k)
    with pytest.raises(ParameterError):
        bound_sync_theorem(SHARP, 0.0, 1.0, 0, sharp_k)


def test_cor_subgrad_sharp_example():
    report = check_report(bound_cor_subgrad(SHARP, 3.0, 1.0, 0))
    assert report.total == pytest.approx(151.0)  # 1 + 3*2*25
    assert report.regime == REGIME_STAGED


def test_cor_subgrad_higher_degree_branch():
    md = GrowthMetadata(mu=1.0, d=2.0, M=1.0)
    eps = 0.01
    N = default_N(eps)
    gap = 3.0
    report = check_report(bound_cor_subgrad(md, gap, eps, N))
    nb = n_bar(gap, eps)
    expected = nb + 1 + 3 * (math.sqrt(5.0) / eps ** 0.5) ** 2 * min(
        4.0 / (2.0 - 1.0), nb + 5)
    assert report.total == pytest.approx(expected, rel=1e-12)


def test_cor_subgrad_add_on_term():
    md = dataclasses.replace(SHARP, dist_x0_to_opt=30.0)
    report = check_report(bound_cor_subgrad(md, 30.0, 1.0, 0))
    assert report.regime == REGIME_ADD_ON
    assert report.terms[-1][1] == pytest.approx(900.0)


def test_cor_subgrad_requires_M():
    md = GrowthMetadata(mu=1.0, d=1.0)
    with pytest.raises(UnsupportedQueryError):
        bound_cor_subgrad(md, 3.0, 1.0, 0)


def test_cor_accel_frozen_example():
    md = GrowthMetadata(mu=5.0, d=2.0, L=5.0)
    report = check_report(bound_cor_accel(md, 3.0, 1.0, 0))
    assert report.total == pytest.approx(1.0 + 12.0 * math.sqrt(5.0), rel=1e-12)
    assert report.total == pytest.approx(27.832815729997478, rel=1e-12)


def test_cor_accel_quartic_branch_min_term():
    md = GrowthMetadata(mu=1.0, d=4.0, L=2.0)
    eps, gap = 0.25, 3.0
    report = check_report(bound_cor_accel(md, gap, eps, default_N(eps)))
    nb = n_bar(gap, eps)
    e = 0.5 - 0.25
    expected = nb + 1 + (6.0 * 5.0 ** 0.25 * math.sqrt(2.0) / eps ** e) * min(
        4.0 ** e / (2.0 ** e - 1.0), nb + 3)
    assert report.total == pytest.approx(expected, rel=1e-12)


def test_cor_accel_rejects_sharp_growth():
    md = GrowthMetadata(mu=1.0, d=1.5, L=2.0)
    with pytest.raises(ParameterError):
        bound_cor_accel(md, 3.0, 1.0, 0)


# ---------------------------------------------------------------------------
# Asynchronous reports
# ---------------------------------------------------------------------------

HOLDER = GrowthMetadata(mu=1.0, d=1.5, M_nu=1.5 * math.sqrt(2.0), nu=0.5)


def holder_t(delta, eps_bar):
    return t_univ(HOLDER.M_nu, HOLDER.nu, delta, eps_bar, 1.0)


def test_async_theorem_frozen_example():
    # f = |x|**1.5 radial instance, gap 3, eps 1, N 0, tau_transit 1,
    # tau_pause 0.5, L0 = 1.  Frozen from an independent recomputation:
    # transit 1, pauses 2, rung budgets 3*126.424068540813 and
    # 3*85.841604167868596, total 639.7970181260448.
    report = check_report(
        bound_async_theorem(HOLDER, 3.0, 1.0, 0, 1.0, 0.5, holder_t))
    assert report.total == pytest.approx(639.7970181260448, rel=1e-12)
    assert report.terms[0] == ("transit", 1.0)
    assert report.terms[1] == ("pauses", 2.0)
    assert report.regime == REGIME_STAGED


def test_async_theorem_zero_delays_reduce_to_rung_budgets():
    with_delays = bound_async_theorem(HOLDER, 3.0, 1.0, 0, 1.0, 0.5, holder_t)
    report = check_report(
        bound_async_theorem(HOLDER, 3.0, 1.0, 0, 0.0, 0.0, holder_t))
    rung_total = sum(v for label, v in with_delays.terms if label.startswith("copy"))
    assert report.total == pytest.approx(rung_total, rel=1e-12)


def test_async_theorem_rejects_negative_delays():
    with pytest.raises(ParameterError):
        bound_async_theorem(HOLDER, 3.0, 1.0, 0, -0.1, 0.0, holder_t)


def test_cor_univ_matched_degree_branch():
    # d = 1 + nu = 2 with nu = 1: epoch term 12*(nb+2)*4*sqrt(5*M/mu).
    md = GrowthMetadata(mu=0.5, d=2.0, M_nu=4.0, nu=1.0)
    report = check_report(bound_cor_univ(md, 3.0, 1.0, 0, 1.0, 0.5, 1.0))
    nb = n_bar(3.0, 1.0)
    epochs = dict(report.terms)["epochs"]
    assert epochs == pytest.approx(12.0 * (nb + 2) * 4.0 * math.sqrt(5.0 * 4.0 / 0.5), rel=1e-12)
    overhead = dict(report.terms)["line-search overhead"]
    delta0 = (3.0 / 0.5) ** 0.5
    assert overhead == pytest.approx(3.0 * (nb + 2) * c_const(delta0, 1.0, 1.0, 4.0, 1.0), rel=1e-12)
    assert report.assumptions_ok  # L0 = 1 <= M_1 = 4


def test_cor_univ_excess_degree_branch():
    md = GrowthMetadata(mu=1.0, d=2.0, M_nu=2.0, nu=0.5)
    eps, gap = 0.5, 3.0
    report = check_report(bound_cor_univ(md, gap, eps, default_N(eps), 0.0, 0.0, 0.25))
    nb = n_bar(gap, eps)
    q = 2.5
    e = (1.0 - 1.5 / 2.0) * 2.0 / q
    body = (2.0 * 5.0 ** 0.75 / eps ** 0.25) ** (2.0 / q)
    expected_epochs = 12.0 * 2.0 ** (5.5 / q) * body * min(4.0 ** e / (2.0 ** e - 1.0), nb + 5)
    assert dict(report.terms)["epochs"] == pytest.approx(expected_epochs, rel=1e-12)


def test_cor_univ_add_on_term():
    md = dataclasses.replace(HOLDER, dist_x0_to_opt=30.0 ** (1 / 1.5))
    report = check_report(bound_cor_univ(md, 30.0, 1.0, 0, 1.0, 0.5, 1.0))
    assert report.regime == REGIME_ADD_ON
    dist = 30.0 ** (1 / 1.5)
    q = 2.5
    expected = (4.0 * 2.0 ** (5.5 / q) * (HOLDER.M_nu * dist ** 1.5 / 1.0) ** (2.0 / q)
                + c_const(dist, 1.0, 0.5, HOLDER.M_nu, 1.0))
    assert report.terms[-1][1] == pytest.approx(expected, rel=1e-12)


def test_cor_univ_flags_inadmissible_L0():
    report = bound_cor_univ(HOLDER, 3.0, 1.0, 0, 0.0, 0.0, 50.0)
    assert not report.assumptions_ok


def test_cor_univ_requires_holder_constants():
    md = GrowthMetadata(mu=1.0, d=2.0, L=2.0)
    with pytest.raises(UnsupportedQueryError):
        bound_cor_univ(md, 3.0, 1.0, 0, 0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Corollaries dominate theorems (they relax the per-rung envelopes)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gap,eps", [(3.0, 1.0), (2.0, 1.0), (40.0, 0.25), (7.0, 0.03125)])
def test_cor_subgrad_dominates_theorem(gap, eps):
    md = dataclasses.replace(SHARP, dist_x0_to_opt=gap)  # f=|x| geometry
    N = default_N(eps)
    cor = check_report(bound_cor_subgrad(md, gap, eps, N))
    thm = check_report(bound_sync_theorem(md, gap, eps, N, sharp_k))
    assert cor.total >= thm.total - 1e-9
    assert cor.regime == thm.regime


@pytest.mark.parametrize("gap,eps", [(3.0, 1.0), (40.0, 0.25), (5.0, 0.0625)])
def test_cor_subgrad_dominates_theorem_quadratic_growth(gap, eps):
    md = GrowthMetadata(mu=1.0, d=2.0, M=3.0, dist_x0_to_opt=math.sqrt(gap))
    N = default_N(eps)
    cor = check_report(bound_cor_subgrad(md, gap, eps, N))
    thm = check_report(bound_sync_theorem(md, gap, eps, N,
                                          lambda d, e: k_subgrad(3.0, d, e)))
    assert cor.total >= thm.total - 1e-9


@pytest.mark.parametrize("md", [
    GrowthMetadata(mu=5.0, d=2.0, L=5.0, dist_x0_to_opt=math.sqrt(30.0 / 5.0)),
    GrowthMetadata(mu=1.0, d=4.0, L=2.0, dist_x0_to_opt=30.0 ** 0.25),
])
@pytest.mark.parametrize("gap,eps", [(3.0, 1.0), (30.0, 1.0), (3.0, 0.0625)])
def test_cor_accel_dominates_theorem(md, gap, eps):
    N = default_N(eps)
    cor = check_report(bound_cor_accel(md, gap, eps, N))
    thm = check_report(bound_sync_theorem(md, gap, eps, N,
                                          lambda d, e: k_accel(md.L, d, e)))
    assert cor.total >= thm.total - 1e-9


@pytest.mark.parametrize("md,L0", [
    (dataclasses.replace(HOLDER, dist_x0_to_opt=30.0 ** (1 / 1.5)), 1.0),
    (GrowthMetadata(mu=1.0, d=2.0, M_nu=2.0, nu=0.5, dist_x0_to_opt=math.sqrt(30.0)), 0.25),
    (GrowthMetadata(mu=0.5, d=2.0, M_nu=4.0, nu=1.0, dist_x0_to_opt=math.sqrt(60.0)), 1.0),
])
@pytest.mark.parametrize("gap,eps,tt,tp", [
    (3.0, 1.0, 1.0, 0.5), (30.0, 1.0, 2.0, 0.25), (3.0, 0.125, 0.0, 0.0)])
def test_cor_univ_dominates_theorem(md, L0, gap, eps, tt, tp):
    N = default_N(eps)
    cor = check_report(bound_cor_univ(md, gap, eps, N, tt, tp, L0))
    thm = check_report(bound_async_theorem(
        md, gap, eps, N, tt, tp,
        lambda d, e: t_univ(md.M_nu, md.nu, d, e, L0)))
    assert cor.total >= thm.total - 1e-9


def test_report_serialization_uses_stable_names():
    report = bound_cor_subgrad(SHARP, 3.0, 1.0, 0)
    blob = report.to_json()
    assert set(blob) == {"which", "n_bar", "total", "terms", "regime", "assumptions_ok"}
    assert blob["which"] == "cor_subgrad"
    assert blob["n_bar"] == 0
    assert blob["terms"][0] == ["startup", 1.0]


def test_default_N_rejects_infinite_and_subnormal_eps():
    for eps in (math.inf, 5e-324, EPS_MIN / 2.0):
        with pytest.raises(ParameterError):
            default_N(eps)
    assert default_N(EPS_MIN) == 1022


def test_default_N_huge_eps_is_minus_one():
    assert default_N(1e308) == -1
    assert default_N(sys.float_info.max) == -1
