"""Method engines: step formulas, certificates, oracle-call accounting."""

import math

import numpy as np
import pytest

from restartfom.bounds import k_accel, k_subgrad, k_univ, l0_admissible, t_univ
from restartfom.errors import (
    ConfigError,
    LineSearchStallError,
    ParameterError,
    RestartFomError,
    UnsupportedQueryError,
)
from restartfom.methods import (
    MethodSpec,
    method_init,
    method_restart,
    prime,
    step,
    subgrad_step,
)
from restartfom.problems import (
    Ball,
    CountingProblem,
    ProblemInstance,
    make_least_squares_problem,
    make_norm_power_problem,
)

ABS = make_norm_power_problem(1, 1.0, 1.0)  # f = |x|


# ---------------------------------------------------------------------------
# Initialization and restart plumbing
# ---------------------------------------------------------------------------


def test_init_evaluates_start_once():
    p = CountingProblem(ABS)
    state = method_init(MethodSpec("subgrad"), p, np.array([1.0]), 0.5)
    assert state.best_value == 1.0
    assert p.evaluate_calls == 1
    assert not state.needs_prime


def test_init_accel_zeroes_momentum():
    p = make_norm_power_problem(1, 1.0, 2.0)
    state = method_init(MethodSpec("accel"), p, np.array([1.0]), 0.5)
    assert state.t == 1.0
    assert state.best_value == 1.0
    assert state.L == 2.0  # resolved from metadata


def test_init_validation():
    with pytest.raises(ParameterError):
        method_init(MethodSpec("subgrad"), ABS, np.array([1.0]), 0.0)
    with pytest.raises(ParameterError):
        MethodSpec("nesterov")
    with pytest.raises(ParameterError):
        method_init(MethodSpec("univ"), ABS, np.array([1.0]), 0.5)  # no L0
    p_ball = make_norm_power_problem(2, 1.0, 2.0, domain=Ball(np.zeros(2), 1.0))
    with pytest.raises(UnsupportedQueryError):
        method_init(MethodSpec("accel"), p_ball, np.zeros(2), 0.5)

    class Bare(ProblemInstance):
        def _value(self, x):
            return float(x @ x)

        def _subgradient(self, x):
            return 2.0 * x

    with pytest.raises(ConfigError):
        method_init(MethodSpec("accel"), Bare("bare", 1), np.array([1.0]), 0.5)


@pytest.mark.parametrize("fields", [
    {"kind": "accel", "L": math.inf}, {"kind": "univ", "L0": math.inf},
    {"kind": "accel", "L": math.nan}, {"kind": "univ", "L0": -math.inf},
])
def test_method_spec_refuses_a_non_finite_constant(fields):
    with pytest.raises(ParameterError):
        MethodSpec(**fields)


def test_init_projects_infeasible_start():
    p = make_norm_power_problem(2, 1.0, 1.0, domain=Ball(np.zeros(2), 1.0))
    state = method_init(MethodSpec("subgrad"), p, np.array([3.0, 4.0]), 0.5)
    assert state.current_iterate == pytest.approx([0.6, 0.8])


def test_restart_makes_no_oracle_call():
    p = CountingProblem(ABS)
    state = method_init(MethodSpec("subgrad"), p, np.array([2.0]), 0.5)
    fresh = method_restart(state, p, np.array([1.0]), 1.0)
    assert p.evaluate_calls == 1
    assert fresh.best_value == 1.0
    assert fresh.needs_prime  # gradient at the foreign point is unknown
    assert prime(fresh, p) == 1
    assert p.evaluate_calls == 2
    assert not fresh.needs_prime


def test_restart_with_known_gradient_skips_priming():
    p = CountingProblem(ABS)
    state = method_init(MethodSpec("subgrad"), p, np.array([2.0]), 0.5)
    fresh = method_restart(state, p, state.best_point, state.best_value, state.best_grad)
    assert not fresh.needs_prime
    assert prime(fresh, p) == 0
    assert p.evaluate_calls == 1


def test_a_sent_gradient_serves_the_prime_only_at_the_point_it_belongs_to():
    ball = Ball(np.array([0.3, -0.7]), 1.7)
    p = CountingProblem(make_norm_power_problem(2, 1.0, 1.0, domain=ball))
    state = method_init(MethodSpec("subgrad"), p, np.zeros(2), 0.5)
    inside = np.array([1.0, -0.5])
    value, grad = p.inner.evaluate(inside)
    kept = method_restart(state, p, inside, value, sent_grad=grad)
    assert kept.needs_prime and kept.best_grad is grad
    assert prime(kept, p) == 1 and p.evaluate_calls == 1  # charged, not evaluated
    assert kept.grad is grad and not kept.needs_prime
    # Projecting this boundary point again moves it, so its gradient belongs to
    # another point: the prime evaluates.
    outside = ball.project(np.array([3.2, 0.5]))
    assert not np.array_equal(ball.project(outside), outside)
    value, grad = p.inner.evaluate(outside)
    moved = method_restart(state, p, outside, value, sent_grad=grad)
    assert moved.needs_prime and moved.best_grad is None
    assert prime(moved, p) == 1 and p.evaluate_calls == 2


def test_restart_at_best_point_keeps_value():
    state = method_init(MethodSpec("subgrad"), ABS, np.array([2.0]), 0.5)
    fresh = method_restart(state, ABS, state.best_point, state.best_value)
    assert fresh.best_value == state.best_value


def test_restart_resets_accel_momentum():
    p = make_norm_power_problem(1, 1.0, 2.0)
    state = method_init(MethodSpec("accel"), p, np.array([1.0]), 0.01)
    for _ in range(5):
        step(state, p)
    assert state.t > 1.0
    fresh = method_restart(state, p, state.best_point, state.best_value)
    assert fresh.t == 1.0
    assert fresh.iterate_index == 0


def test_restart_resets_univ_curvature_to_L0():
    p = make_norm_power_problem(1, 1.0, 2.0)
    state = method_init(MethodSpec("univ", L0=2.0), p, np.array([1.0]), 0.25)
    step(state, p)
    assert state.L_hat == 1.0  # halved after the accepted step
    fresh = method_restart(state, p, state.best_point, state.best_value)
    assert fresh.L_hat == 2.0
    assert fresh.A == 0.0


def test_stepping_before_priming_is_an_error():
    state = method_init(MethodSpec("subgrad"), ABS, np.array([2.0]), 0.5)
    fresh = method_restart(state, ABS, np.array([1.0]), 1.0)
    with pytest.raises(RestartFomError):
        subgrad_step(fresh, ABS)


def test_clone_is_independent():
    p = make_norm_power_problem(1, 1.0, 2.0)
    state = method_init(MethodSpec("accel"), p, np.array([1.0]), 0.25)
    snap = state.clone()
    step(state, p)
    assert snap.iterate_index == 0
    assert snap.t == 1.0
    assert state.iterate_index == 1


def _array_bytes(state) -> dict:
    return {name: value.tobytes() for name, value in vars(state).items()
            if isinstance(value, np.ndarray)}


@pytest.mark.parametrize("spec, problem", [
    (MethodSpec("subgrad"), make_norm_power_problem(3, 1.0, 1.0, domain=Ball(np.zeros(3), 2.0))),
    (MethodSpec("accel"), make_least_squares_problem(4, 6, seed=2)),
    (MethodSpec("univ", L0=1.0), make_norm_power_problem(3, 1.0, 1.5)),
])
def test_stepping_a_clone_leaves_the_original_arrays_untouched(spec, problem):
    # clone() shares arrays with the original; no step may write into them.
    state = method_init(spec, problem, np.array([1.5, -0.5, 1.0, 0.25][:problem.dimension]), 0.25)
    for _ in range(3):
        step(state, problem)
    before = _array_bytes(state)
    assert len(before) >= 4
    scalars = (state.best_value, state.iterate_index, state.converged)
    clone = state.clone()
    for _ in range(5):
        step(clone, problem)
    assert clone.iterate_index == state.iterate_index + 5
    assert _array_bytes(state) == before
    assert (state.best_value, state.iterate_index, state.converged) == scalars


@pytest.mark.parametrize("spec", [
    MethodSpec("subgrad"),
    MethodSpec("accel"),
    MethodSpec("univ", L0=1.0),
])
def test_states_own_the_arrays_callers_pass_in(spec):
    # The one copy on entry: a caller may write into its arrays afterwards.
    p = make_norm_power_problem(2, 1.0, 2.0)
    x = np.array([1.0, -2.0])
    state = method_init(spec, p, x, 0.25)
    x[:] = 7.0
    y = np.array([0.5, 0.5])
    g = p.evaluate(y).subgradient
    fresh = method_restart(state, p, y, p.value(y), g)
    y[:] = 7.0
    g[:] = 7.0
    for owner, expected in ((state, [1.0, -2.0]), (fresh, [0.5, 0.5])):
        for name in ("restart_point", "current_iterate", "best_point"):
            assert getattr(owner, name).tolist() == expected, name
    assert fresh.best_grad.tolist() == [1.0, 1.0]


# ---------------------------------------------------------------------------
# Projected subgradient
# ---------------------------------------------------------------------------


def test_subgrad_step_formula():
    state = method_init(MethodSpec("subgrad"), ABS, np.array([1.0]), 0.5)
    assert subgrad_step(state, ABS) == 1
    assert state.current_iterate == pytest.approx([0.5])


def test_subgrad_overshoot_keeps_best():
    state = method_init(MethodSpec("subgrad"), ABS, np.array([0.25]), 0.5)
    subgrad_step(state, ABS)
    assert state.current_iterate == pytest.approx([-0.25])
    assert state.best_value == 0.25


def test_subgrad_zero_gradient_converges_without_division():
    state = method_init(MethodSpec("subgrad"), ABS, np.array([0.0]), 0.5)
    assert state.converged
    assert subgrad_step(state, ABS) == 1
    assert state.converged
    assert state.current_iterate == pytest.approx([0.0])


@pytest.mark.parametrize("mu, scale", [(1e155, 1e-155), (1.7e308, 1e-300)])
def test_subgrad_step_takes_its_step_when_g_g_overflows(mu, scale):
    # ||g|| = mu, so g·g is beyond the float range; the step is still
    # target / ||g|| along -g, here half way to the center.
    p = make_norm_power_problem(2, mu, 1.0)
    x = np.array([3.0, 4.0]) * scale
    state = method_init(MethodSpec("subgrad"), p, x, p.value(x) / 2.0)
    assert state.grad_sq == math.inf
    subgrad_step(state, p)
    assert state.current_iterate / scale == pytest.approx([1.5, 2.0], rel=1e-12)


def test_subgrad_certificate_exact():
    # Some iterate among the first K_subgrad(delta, eps) has gap <= eps,
    # exactly, with the step's descent recursion giving strict slack.
    p = make_norm_power_problem(10, 1.0, 1.0)
    rng = np.random.default_rng(0)
    for eps_bar, delta in [(0.1, 1.0), (0.25, 2.0), (0.5, 1.0)]:
        u = rng.normal(size=10)
        u *= delta / np.linalg.norm(u)
        state = method_init(MethodSpec("subgrad"), p, u, eps_bar)
        for _ in range(k_subgrad(1.0, delta, eps_bar)):
            step(state, p)
        assert state.best_value <= eps_bar  # exact, no tolerance


def test_subgrad_distance_recursion():
    # While the gap exceeds the target, squared distance to the optimum
    # drops by more than (eps/M)^2 per step.
    p = make_norm_power_problem(5, 2.0, 1.0)  # M = 2
    rng = np.random.default_rng(3)
    eps_bar = 0.3
    x = rng.normal(size=5)
    state = method_init(MethodSpec("subgrad"), p, x, eps_bar)
    for _ in range(100):
        d_before = p.distance_to_opt(state.current_iterate)
        gap_before = p.value(state.current_iterate)
        step(state, p)
        if gap_before > eps_bar:
            d_after = p.distance_to_opt(state.current_iterate)
            assert d_after ** 2 < d_before ** 2 - (eps_bar / 2.0) ** 2 + 1e-12
        if state.converged:
            break


def test_best_value_monotone_between_restarts():
    p = make_norm_power_problem(4, 1.0, 1.0)
    rng = np.random.default_rng(9)
    state = method_init(MethodSpec("subgrad"), p, rng.normal(size=4), 0.05)
    seen = [state.best_value]
    for _ in range(50):
        step(state, p)
        seen.append(state.best_value)
    assert all(b <= a for a, b in zip(seen, seen[1:]))


# ---------------------------------------------------------------------------
# Accelerated gradient
# ---------------------------------------------------------------------------


def test_accel_stationary_start_stays_put():
    p = make_norm_power_problem(1, 1.0, 2.0)
    state = method_init(MethodSpec("accel"), p, np.array([0.0]), 0.5)
    assert state.converged
    step(state, p)
    assert state.current_iterate == pytest.approx([0.0])


def test_accel_reaches_target_within_budget():
    # f = x**2 (L = 2), start 1, target 0.25: within K_accel = 5 iterations.
    p = make_norm_power_problem(1, 1.0, 2.0)
    state = method_init(MethodSpec("accel"), p, np.array([1.0]), 0.25)
    K = k_accel(2.0, 1.0, 0.25)
    assert K == 5
    for _ in range(K):
        step(state, p)
    assert state.best_value <= 0.25


def test_accel_classical_rates():
    # f = 0.5*L*x^2 with L = 3 (norm-power mu = 1.5): the iterate sequence
    # obeys both 2*L*delta^2/(k+1)^2 and 4*L*delta^2/(k+2)^2.
    p = make_norm_power_problem(1, 1.5, 2.0)
    L, delta = 3.0, 2.0
    state = method_init(MethodSpec("accel"), p, np.array([delta]), 1e-6)
    values = [state.best_value]
    for _ in range(60):
        step(state, p)
        values.append(p.value(state.current_iterate))
    for k, val in enumerate(values):
        assert val <= 2.0 * L * delta ** 2 / (k + 1) ** 2 + 1e-12
        assert val <= 4.0 * L * delta ** 2 / (k + 2) ** 2 + 1e-12


def test_accel_rate_on_anisotropic_quadratic():
    p = make_least_squares_problem(4, 6, seed=2)
    L = p.metadata.L
    rng = np.random.default_rng(4)
    x0 = rng.normal(size=4)
    delta = p.distance_to_opt(x0)
    state = method_init(MethodSpec("accel"), p, x0, 1e-9)
    values = [state.best_value]
    for _ in range(80):
        step(state, p)
        values.append(p.value(state.current_iterate))
    for k, val in enumerate(values):
        assert val <= 2.0 * L * delta ** 2 / (k + 1) ** 2 + 1e-9


def test_accel_epoch_costs_steps_plus_one():
    p = CountingProblem(make_norm_power_problem(1, 1.0, 2.0))
    state = method_init(MethodSpec("accel"), p, np.array([1.0]), 0.25)
    calls = [step(state, p) for _ in range(7)]
    assert p.evaluate_calls == 1 + sum(calls) == 8


# ---------------------------------------------------------------------------
# Universal fast gradient
# ---------------------------------------------------------------------------


def test_univ_smooth_first_iteration_accepts_quickly():
    # L0 equal to the true smoothness constant: the first trial accepts.
    p = CountingProblem(make_norm_power_problem(1, 1.0, 2.0))
    state = method_init(MethodSpec("univ", L0=2.0), p, np.array([1.0]), 0.25)
    assert step(state, p) <= 4
    assert state.L_hat == 1.0  # halved once on acceptance


def test_univ_reaches_target_within_k_univ():
    # f = (2/3)*||x||**1.5: Hölder gradient with nu = 0.5, M_nu = sqrt(2).
    M_nu, nu = math.sqrt(2.0), 0.5
    for eps_bar in (0.5, 0.1, 0.02):
        p = make_norm_power_problem(3, 2.0 / 3.0, 1.5)
        rng = np.random.default_rng(5)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        state = method_init(MethodSpec("univ", L0=0.25), p, u, eps_bar)
        for _ in range(k_univ(M_nu, nu, 1.0, eps_bar)):
            if state.best_value <= eps_bar:
                break
            step(state, p)
        assert state.best_value <= eps_bar


def test_univ_oracle_calls_within_time_budget():
    # Cumulative oracle calls over the first k iterations stay within the
    # 4*(k+1) + log-terms budget whenever L0 is admissible.
    M_nu, nu, L0 = math.sqrt(2.0), 0.5, 0.25
    for eps_bar in (0.1, 0.02):
        assert l0_admissible(M_nu, nu, eps_bar, L0)
        p = CountingProblem(make_norm_power_problem(3, 2.0 / 3.0, 1.5))
        rng = np.random.default_rng(5)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        state = method_init(MethodSpec("univ", L0=L0), p, u, eps_bar)
        cumulative = 1  # the init call
        q = 1.0 + 3.0 * nu
        logs = (3.0 * (1.0 - nu) / q) * math.log2(1.0 / eps_bar) \
            + (4.0 / q) * math.log2(M_nu) - 2.0 * math.log2(L0)
        for k in range(1, k_univ(M_nu, nu, 1.0, eps_bar) + 1):
            cumulative += step(state, p)
            assert cumulative <= 4.0 * (k + 1) + logs
        assert p.evaluate_calls == cumulative
        assert cumulative <= t_univ(M_nu, nu, 1.0, eps_bar, L0)


def test_univ_line_search_doubles_until_model_holds():
    # Tiny L0 forces repeated doubling before the first acceptance.
    p = CountingProblem(make_norm_power_problem(1, 1.0, 2.0))
    state = method_init(MethodSpec("univ", L0=1e-4), p, np.array([1.0]), 0.25)
    assert step(state, p) > 2
    assert state.L_hat >= 1e-4  # net growth despite the final halving


def test_univ_line_search_stall_diagnostic():
    # An inconsistent oracle whose reported value inflates on every call can
    # never satisfy the acceptance model; the trial cap must fire.

    class InflatingOracle(ProblemInstance):
        def __init__(self):
            super().__init__("inflating", 1)
            self.reads = 0

        def _value(self, x):
            self.reads += 1
            return float(self.reads)

        def _subgradient(self, x):
            return np.ones(1)

    p = InflatingOracle()
    state = method_init(MethodSpec("univ", L0=1.0), p, np.array([1.0]), 0.5)
    with pytest.raises(LineSearchStallError) as info:
        step(state, p)
    assert info.value.iteration == 1
    assert info.value.curvature > 1.0


def test_univ_zero_gradient_converges():
    p = make_norm_power_problem(1, 1.0, 2.0)
    state = method_init(MethodSpec("univ", L0=2.0), p, np.array([0.0]), 0.5)
    assert state.converged
    step(state, p)
    assert state.converged
    assert p.value(state.current_iterate) == 0.0


# ---------------------------------------------------------------------------
# Cross-method accounting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", [
    MethodSpec("subgrad"),
    MethodSpec("accel"),
    MethodSpec("univ", L0=1.0),
])
def test_oracle_accounting_with_restarts(spec):
    p = CountingProblem(make_norm_power_problem(2, 1.0, 2.0))
    rng = np.random.default_rng(11)
    state = method_init(spec, p, rng.normal(size=2), 0.125)
    inits, primes, stepped = 1, 0, 0
    for round_no in range(3):
        for _ in range(5):
            stepped += step(state, p)
        state = method_restart(state, p, rng.normal(size=2) * 0.5,
                               float(p.value(rng.normal(size=2) * 0.0) + 1.0))
        primes += prime(state, p)
    # The value() reads above are free; only evaluate() counts.
    assert p.evaluate_calls == inits + primes + stepped
