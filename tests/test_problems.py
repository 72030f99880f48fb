"""Problem instances: oracle correctness, projections, growth certificates."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restartfom.errors import (
    DimensionMismatchError,
    NonFiniteInputError,
    NonFiniteValueError,
    ParameterError,
    UnsupportedQueryError,
)
from restartfom.problems import (
    AllSpace,
    Ball,
    Box,
    CountingProblem,
    LeastSquaresProblem,
    NormPowerProblem,
    PiecewiseMaxProblem,
    ProblemInstance,
    make_least_squares_problem,
    make_norm_power_problem,
    make_piecewise_max_problem,
)

# ---------------------------------------------------------------------------
# Oracle evaluation
# ---------------------------------------------------------------------------


def test_evaluate_scaled_abs():
    p = make_norm_power_problem(1, mu=2.0, d=1.0)
    out = p.evaluate(np.array([3.0]))
    assert out.value == 6.0
    assert out.subgradient == pytest.approx([2.0])


def test_evaluate_scaled_abs_at_minimizer_returns_zero_subgradient():
    p = make_norm_power_problem(1, mu=2.0, d=1.0)
    out = p.evaluate(np.array([0.0]))
    assert out.value == 0.0
    assert np.all(out.subgradient == 0.0)


def test_evaluate_least_squares_identity():
    p = LeastSquaresProblem(np.eye(2), np.array([1.0, 0.0]))
    out = p.evaluate(np.zeros(2))
    assert out.value == pytest.approx(0.5)
    assert out.subgradient == pytest.approx([-1.0, 0.0])


def test_evaluate_rejects_dimension_mismatch():
    p = make_norm_power_problem(2, mu=1.0, d=1.0)
    with pytest.raises(DimensionMismatchError):
        p.evaluate(np.zeros(3))


def test_evaluate_rejects_non_finite_points():
    p = make_norm_power_problem(2, mu=1.0, d=1.0)
    with pytest.raises(NonFiniteInputError):
        p.evaluate(np.array([1.0, np.nan]))
    with pytest.raises(NonFiniteInputError):
        p.evaluate(np.array([np.inf, 0.0]))


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


def test_project_halfline_box():
    p = make_norm_power_problem(1, mu=1.0, d=1.0, domain=Box([0.0], [np.inf]))
    assert p.project(np.array([-1.0])) == pytest.approx([0.0])


def test_project_all_space_is_identity():
    p = make_norm_power_problem(3, mu=1.0, d=2.0)
    x = np.array([5.0, -2.0, 0.5])
    assert p.project(x) == pytest.approx(x)


def test_project_unit_ball_radial_scaling():
    p = make_norm_power_problem(2, mu=1.0, d=1.0, domain=Ball(np.zeros(2), 1.0))
    assert p.project(np.array([3.0, 4.0])) == pytest.approx([0.6, 0.8])


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=2),
       st.lists(st.floats(-50, 50), min_size=2, max_size=2))
def test_ball_projection_nonexpansive(xs, ys):
    ball = Ball(np.array([1.0, -2.0]), 3.0)
    x, y = np.array(xs), np.array(ys)
    assert np.linalg.norm(ball.project(x) - ball.project(y)) <= np.linalg.norm(x - y) + 1e-12


@given(st.lists(st.floats(-50, 50), min_size=3, max_size=3))
def test_box_projection_idempotent(xs):
    box = Box([-1.0, 0.0, -np.inf], [2.0, 0.0, 5.0])
    x = np.array(xs)
    once = box.project(x)
    assert np.array_equal(box.project(once), once)


def test_projection_nonexpansive_random_pairs():
    rng = np.random.default_rng(3)
    domains = [Ball(rng.normal(size=4), 2.5), Box(-np.ones(4), np.ones(4) * 2)]
    for dom in domains:
        for _ in range(200):
            x, y = rng.normal(size=4) * 5, rng.normal(size=4) * 5
            assert (np.linalg.norm(dom.project(x) - dom.project(y))
                    <= np.linalg.norm(x - y) + 1e-12)


def test_invalid_domains_rejected():
    with pytest.raises(ParameterError):
        Ball(np.zeros(2), 0.0)
    with pytest.raises(ParameterError):
        Box([0.0, 0.0], [1.0, -1.0])


# ---------------------------------------------------------------------------
# Norm-power family
# ---------------------------------------------------------------------------


def test_norm_power_sharp_instance_growth_holds_with_equality():
    p = make_norm_power_problem(1, mu=1.0, d=1.0)
    x = np.array([2.0])
    assert p.value(x) == 2.0
    assert p.distance_to_opt(x) == 2.0
    assert p.metadata.M == 1.0


def test_norm_power_smooth_instance_records_L():
    p = make_norm_power_problem(2, mu=1.0, d=2.0)
    assert p.metadata.L == 2.0
    rng = np.random.default_rng(0)
    for _ in range(200):
        x, y = rng.normal(size=2) * 4, rng.normal(size=2) * 4
        gx = p.evaluate(x).subgradient
        gy = p.evaluate(y).subgradient
        assert np.linalg.norm(gx - gy) <= p.metadata.L * np.linalg.norm(x - y) + 1e-12


def test_norm_power_holder_instance_growth_certificate():
    # Sampling certificate for the d=1.5 radial instance: growth holds with
    # equality everywhere, by construction.
    p = make_norm_power_problem(5, mu=3.0, d=1.5)
    rng = np.random.default_rng(7)
    for x in rng.normal(size=(1000, 5)) * 2.0:
        f = p.value(x)
        assert f >= 3.0 * p.distance_to_opt(x) ** 1.5 - 1e-10
        assert f == pytest.approx(3.0 * np.linalg.norm(x) ** 1.5, rel=1e-12)


def test_norm_power_holder_constant_is_tight_and_valid():
    # The recorded constant mu*d*2**(2-d) bounds the sampled Hölder ratio
    # ||g(x)-g(y)|| / ||x-y||**nu and is attained at antipodal pairs.
    p = make_norm_power_problem(5, mu=3.0, d=1.5)
    nu, M_nu = p.metadata.nu, p.metadata.M_nu
    assert nu == 0.5
    assert M_nu == pytest.approx(3.0 * 1.5 * 2.0 ** 0.5, rel=1e-12)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(2000):
        x, y = rng.normal(size=5), rng.normal(size=5)
        gx = p.evaluate(x).subgradient
        gy = p.evaluate(y).subgradient
        worst = max(worst, np.linalg.norm(gx - gy) / np.linalg.norm(x - y) ** nu)
    for _ in range(500):
        u = rng.normal(size=5)
        u /= np.linalg.norm(u)
        t = rng.uniform(0.01, 10.0)
        gx = p.evaluate(t * u).subgradient
        gy = p.evaluate(-t * u).subgradient
        worst = max(worst, np.linalg.norm(gx - gy) / (2.0 * t) ** nu)
    assert worst <= M_nu + 1e-9
    assert worst == pytest.approx(M_nu, rel=1e-6)  # antipodal pairs attain it


def test_norm_power_point_at_gap_and_envelope_are_exact():
    p = make_norm_power_problem(3, mu=2.0, d=1.5, center=np.array([1.0, 0.0, -1.0]))
    rng = np.random.default_rng(5)
    for gap in (0.25, 3.0, 30.0):
        x = p.point_at_gap(gap, rng=rng)
        assert p.value(x) == pytest.approx(gap, rel=1e-12)
        assert p.distance_to_opt(x) == pytest.approx(p.growth_envelope(gap), rel=1e-12)


def test_norm_power_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        make_norm_power_problem(2, mu=1.0, d=0.5)
    with pytest.raises(ParameterError):
        make_norm_power_problem(2, mu=-1.0, d=1.0)


def test_norm_power_subgradient_norms_bounded_by_M():
    p = make_norm_power_problem(4, mu=2.5, d=1.0)
    rng = np.random.default_rng(9)
    for x in rng.normal(size=(300, 4)) * 10:
        g = p.evaluate(x).subgradient
        assert np.linalg.norm(g) <= p.metadata.M + 1e-12


# ---------------------------------------------------------------------------
# Piecewise-max family
# ---------------------------------------------------------------------------


def test_piecewise_abs_value_instance():
    p = PiecewiseMaxProblem(np.array([[1.0], [-1.0]]), np.zeros(2), np.zeros(1), mu=1.0)
    assert p.value(np.array([-2.0])) == 2.0
    assert p.metadata.M == 1.0
    assert p.metadata.mu == 1.0
    assert p.distance_to_opt(np.zeros(1)) == 0.0


def test_piecewise_max_norm_growth_constant():
    # f(x) = ||x||_inf in 2-D: the minimum of ||x||_inf over the Euclidean
    # unit circle is 1/sqrt(2) (frozen from a 2e6-point grid search, which
    # returned 0.7071067811865476 at the diagonal).
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    p = PiecewiseMaxProblem(A, np.zeros(4), np.zeros(2), mu=1.0 / math.sqrt(2.0))
    theta = np.linspace(0.0, 2.0 * np.pi, 40001)
    ratios = [p.value(np.array([math.cos(t), math.sin(t)])) for t in theta]
    assert min(ratios) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-8)
    assert p.metadata.M == 1.0


def test_piecewise_subgradient_lowest_active_index():
    # At the kink of max(x1, x2) both pieces are active; the oracle must
    # return the first one.
    A = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    p = PiecewiseMaxProblem(A, np.zeros(3), np.zeros(2), mu=1e-9)
    g = p.evaluate(np.array([2.0, 2.0])).subgradient
    assert np.array_equal(g, A[0])


def test_generated_piecewise_growth_certificate():
    # Both construction branches (cross-polytope core and simplex core) on
    # >= 1000 random points each.
    for dim, pieces, seed in [(2, 4, 0), (3, 5, 2), (4, 9, 3), (5, 6, 4)]:
        p = make_piecewise_max_problem(dim, pieces, seed)
        md = p.metadata
        rng = np.random.default_rng(seed + 100)
        for x in p.minimizer + rng.normal(size=(1000, dim)) * 3.0:
            assert p.value(x) >= md.mu * p.distance_to_opt(x) - 1e-12
        assert p.value(p.minimizer) == 0.0


def test_generated_piecewise_mu_is_near_tight():
    p = make_piecewise_max_problem(2, 4, seed=0)
    rng = np.random.default_rng(1)
    dirs = rng.normal(size=(20000, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    best = min(p.value(p.minimizer + u) for u in dirs)
    assert best >= p.metadata.mu - 1e-12
    assert best <= p.metadata.mu * 1.01


def test_generated_piecewise_subgradient_norms_bounded_by_M():
    p = make_piecewise_max_problem(3, 7, seed=5)
    rng = np.random.default_rng(6)
    for x in rng.normal(size=(300, 3)) * 5:
        assert np.linalg.norm(p.evaluate(x).subgradient) <= p.metadata.M + 1e-12


def test_generated_piecewise_deterministic_in_seed():
    a = make_piecewise_max_problem(3, 6, seed=12)
    b = make_piecewise_max_problem(3, 6, seed=12)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.b, b.b)
    assert np.array_equal(a.minimizer, b.minimizer)


def test_generated_piecewise_rejects_too_few_pieces():
    with pytest.raises(ParameterError):
        make_piecewise_max_problem(3, 3, seed=0)


def test_piecewise_point_at_gap_exact():
    rng = np.random.default_rng(8)
    for dim, pieces, seed in [(2, 4, 0), (3, 5, 2)]:
        p = make_piecewise_max_problem(dim, pieces, seed)
        for gap in (0.5, 3.0, 30.0):
            x = p.point_at_gap(gap, rng=rng)
            assert p.value(x) == pytest.approx(gap, rel=1e-12)


# ---------------------------------------------------------------------------
# Least-squares family
# ---------------------------------------------------------------------------


def test_least_squares_metadata_from_spectrum():
    # sigma_range endpoints are pinned into the spectrum, so for rank >= 2
    # the constants are exactly the endpoint squares.
    p = make_least_squares_problem(3, 4, seed=5, rank=2)
    assert p.metadata.L == pytest.approx(4.0, rel=1e-12)
    assert p.metadata.mu == pytest.approx(0.5, rel=1e-12)
    assert p.metadata.nu == 1.0
    assert p.metadata.M_nu == p.metadata.L
    assert p.metadata.d == 2.0


def test_least_squares_distance_matches_brute_force_on_affine_line():
    # rank 2 in R^3 leaves a one-dimensional optimal set; frozen against a
    # 2e6-point scan along the line (agreed to 3.157795095 for this query).
    p = make_least_squares_problem(3, 4, seed=5, rank=2)
    _, _, vt = np.linalg.svd(p.A)
    null_dir = vt[-1]
    x_part = np.linalg.pinv(p.A) @ p.b
    rng = np.random.default_rng(42)
    rng.normal(size=(2, 4))  # spacer draws; keep the frozen query point stable
    for _ in range(50):
        x = rng.normal(size=3) * 2
        ts = np.linspace(-60, 60, 200001)
        brute = np.min(np.linalg.norm(
            x[None, :] - (x_part[None, :] + ts[:, None] * null_dir[None, :]), axis=1))
        assert p.distance_to_opt(x) == pytest.approx(brute, abs=1e-6)


def test_least_squares_growth_certificate_and_envelope():
    p = make_least_squares_problem(4, 6, seed=11, rank=3)
    md = p.metadata
    rng = np.random.default_rng(2)
    for x in rng.normal(size=(1000, 4)) * 3:
        assert p.value(x) >= md.mu * p.distance_to_opt(x) ** 2 - 1e-10
    for gap in (0.5, 4.0, 20.0):
        x = p.point_at_gap(gap, rng=rng)
        assert p.value(x) == pytest.approx(gap, rel=1e-10)
        assert p.distance_to_opt(x) <= p.growth_envelope(gap) + 1e-10


def test_least_squares_gradient_finite_difference():
    p = make_least_squares_problem(3, 5, seed=4)
    rng = np.random.default_rng(13)
    x = rng.normal(size=3)
    g = p.evaluate(x).subgradient
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (p.value(x + e) - p.value(x - e)) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_least_squares_consistent_system_has_zero_optimum():
    p = make_least_squares_problem(5, 8, seed=3, rank=4)
    x_sol = np.linalg.pinv(p.A) @ p.b
    assert p.value(x_sol) == pytest.approx(0.0, abs=1e-18)
    assert p.distance_to_opt(x_sol) == pytest.approx(0.0, abs=1e-9)


def test_least_squares_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        make_least_squares_problem(4, 3, seed=0)
    with pytest.raises(ParameterError):
        make_least_squares_problem(4, 6, seed=0, rank=5)
    with pytest.raises(ParameterError):
        make_least_squares_problem(4, 6, seed=0, sigma_range=(2.0, 1.0))


@pytest.mark.parametrize("rank", [None, 2])
@pytest.mark.parametrize("hi", [1e9, 1e10, 1e12])
def test_an_ill_conditioned_least_squares_instance_builds_and_an_off_range_b_is_refused(hi, rank):
    # The consistency check projects b onto an orthonormal basis of A's range,
    # whose rounding does not grow with the condition number as pinv's does.
    for seed in range(20):
        p = make_least_squares_problem(3, 4, seed=seed, rank=rank, sigma_range=(1.0, hi))
        assert p.metadata.L == pytest.approx(hi ** 2)
        # Four rows and a rank of at most 3: the last left singular vector
        # is orthogonal to the range.
        off_range = np.linalg.svd(p.A)[0][:, -1]
        with pytest.raises(ParameterError, match="consistent"):
            LeastSquaresProblem(p.A, p.b + 1e-6 * np.linalg.norm(p.b) * off_range)
        if rank is not None:  # rank 2: the third left singular vector is off the range too
            with pytest.raises(ParameterError, match="consistent"):
                LeastSquaresProblem(p.A, p.b + 1e-6 * np.linalg.norm(p.b)
                                    * np.linalg.svd(p.A)[0][:, 2])


# ---------------------------------------------------------------------------
# Growth metadata and envelope
# ---------------------------------------------------------------------------


def test_growth_envelope_linear():
    p = make_norm_power_problem(1, mu=2.0, d=1.0)
    assert p.growth_envelope(1.0) == pytest.approx(0.5)


def test_growth_envelope_at_optimum_is_zero():
    p = make_norm_power_problem(2, mu=2.0, d=1.0)
    assert p.growth_envelope(0.0) == 0.0


def test_growth_envelope_square_root():
    p = make_norm_power_problem(2, mu=1.0, d=2.0)
    assert p.growth_envelope(4.0) == pytest.approx(2.0)


def test_growth_envelope_rejects_values_below_optimum():
    p = make_norm_power_problem(2, mu=1.0, d=2.0)
    with pytest.raises(ParameterError):
        p.growth_envelope(-0.1)


def test_metadata_validates_growth_degree_against_holder_exponent():
    from restartfom.problems import GrowthMetadata
    with pytest.raises(ParameterError):
        GrowthMetadata(mu=1.0, d=1.2, nu=0.5)
    md = GrowthMetadata(mu=1.0, d=1.5, nu=0.5)
    assert md.envelope(1.0) == 1.0
    with pytest.raises(ParameterError):
        GrowthMetadata(mu=0.0, d=1.0)


# ---------------------------------------------------------------------------
# distance_to_opt plumbing
# ---------------------------------------------------------------------------


def test_distance_to_opt_single_point():
    p = make_norm_power_problem(2, mu=1.0, d=1.0)
    assert p.distance_to_opt(np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_distance_to_opt_on_optimal_set_is_zero():
    p = make_piecewise_max_problem(3, 6, seed=2)
    assert p.distance_to_opt(p.minimizer) == 0.0


def test_distance_to_opt_without_descriptor_raises():
    class Opaque(ProblemInstance):
        def _value(self, x):
            return float(x @ x)

        def _subgradient(self, x):
            return 2.0 * x

    p = Opaque("opaque", 2)
    with pytest.raises(UnsupportedQueryError):
        p.distance_to_opt(np.zeros(2))
    with pytest.raises(UnsupportedQueryError):
        p.growth_envelope(1.0)


# ---------------------------------------------------------------------------
# Shared properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("factory", [
    lambda: make_norm_power_problem(3, 2.0, 1.0),
    lambda: make_norm_power_problem(3, 1.0, 1.5),
    lambda: make_norm_power_problem(3, 1.5, 2.0),
    lambda: make_piecewise_max_problem(3, 6, seed=1),
    lambda: make_least_squares_problem(3, 5, seed=1),
])
def test_subgradient_inequality_random_pairs(factory):
    p = factory()
    rng = np.random.default_rng(17)
    for _ in range(200):
        x, y = rng.normal(size=3) * 4, rng.normal(size=3) * 4
        fx, g = p.evaluate(x)
        assert p.value(y) >= fx + g @ (y - x) - 1e-9


def test_counting_wrapper_tracks_oracle_and_value_reads():
    p = CountingProblem(make_norm_power_problem(2, 1.0, 2.0))
    p.evaluate(np.ones(2))
    p.evaluate(np.zeros(2))
    p.value(np.ones(2))
    assert p.evaluate_calls == 2
    assert p.value_calls == 1
    assert p.dimension == 2  # attribute pass-through


# ---------------------------------------------------------------------------
# One-pass oracle and validation at the boundary
# ---------------------------------------------------------------------------


def _one_of_each_family():
    return [
        make_norm_power_problem(5, mu=1.5, d=1.5, center=np.arange(5.0)),
        make_piecewise_max_problem(6, 20, seed=3),
        make_least_squares_problem(6, 9, seed=4),
    ]


@pytest.mark.parametrize("family", range(3))
def test_oracle_is_bitwise_equal_to_value_and_subgradient(family):
    p = _one_of_each_family()[family]
    rng = np.random.default_rng(family)
    for _ in range(50):
        x = rng.normal(scale=3.0, size=p.dimension)
        value, grad = p._oracle(x)
        assert value.hex() == p._value(x).hex()
        assert grad.dtype == np.float64
        assert grad.tobytes() == p._subgradient(x).tobytes()
        out = p.evaluate(x)
        assert out.value.hex() == value.hex()
        assert out.subgradient.tobytes() == grad.tobytes()


def test_oracle_tie_resolves_to_lowest_index():
    # f(x) = ||x||_inf; at (-1, 1) pieces 1 (-x1) and 2 (x2) tie at 1.
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    p = PiecewiseMaxProblem(A, np.zeros(4), np.zeros(2), mu=1.0 / math.sqrt(2.0))
    x = np.array([-1.0, 1.0])
    value, grad = p._oracle(x)
    assert value == 1.0 == p._value(x)
    assert grad.tobytes() == A[1].tobytes() == p._subgradient(x).tobytes()


@pytest.mark.parametrize("family", range(3))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_public_oracles_reject_non_finite_points_without_warnings(family, bad):
    p = _one_of_each_family()[family]
    x = np.arange(float(p.dimension))
    x[1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInputError):
            p.evaluate(x)
        with pytest.raises(NonFiniteInputError):
            p.value(x)
        with pytest.raises(DimensionMismatchError):
            p.evaluate(np.zeros(p.dimension + 1))
        with pytest.raises(DimensionMismatchError):
            p.project(np.zeros(p.dimension - 1))


@pytest.mark.parametrize("dimension, d, scale", [(2, 2.0, 1e200), (3, 3.0, 1e120),
                                                  (3, 1.0, 1e308)])
def test_norm_power_far_finite_point_is_a_typed_error_without_warnings(dimension, d, scale):
    p = make_norm_power_problem(dimension, 1.0, d)
    x = np.full(dimension, scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValueError):
            p.evaluate(x)
        with pytest.raises(NonFiniteValueError):
            p.value(x)


@pytest.mark.parametrize("d", [1.0, 1.5])
def test_norm_power_gradient_is_finite_where_its_factor_overflows(d):
    # At r = 5e-9 the factor mu * d * r**(d - 2) overflows, though the
    # gradient's norm mu * d * r**(d - 1) is at most mu * d.
    mu, x = 1e308, np.array([3e-9, 4e-9])
    assert mu * d * 5e-9 ** (d - 2.0) == math.inf
    p = make_norm_power_problem(2, mu, d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grad = p.evaluate(x).subgradient
        assert grad.tobytes() == p._subgradient(x).tobytes()
        norm = math.hypot(*grad)
    assert norm == pytest.approx(mu * d * 5e-9 ** (d - 1.0), rel=1e-12)
    assert grad / norm == pytest.approx([0.6, 0.8], rel=1e-12)


@pytest.mark.parametrize("d", [2.0, 3.0])
def test_a_norm_power_gradient_constant_beyond_the_float_range_is_refused_at_mu(d):
    with pytest.raises(ParameterError) as err:
        make_norm_power_problem(2, 1.7e308, d)
    assert err.value.field == "mu"
    assert make_norm_power_problem(2, 1.7e308, 1.0).metadata.M == 1.7e308


def test_a_least_squares_smoothness_constant_beyond_the_float_range_is_refused():
    with pytest.raises(ParameterError) as err:
        make_least_squares_problem(3, 4, seed=0, sigma_range=(1.0, 1e200))
    assert err.value.field == "sigma_range"
    # At the top of the range every seed builds without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(20):
            assert make_least_squares_problem(3, 4, seed=seed,
                                              sigma_range=(1.0, 1e154)).metadata.L < math.inf


class _NanOracle(ProblemInstance):
    """An oracle that answers NaN at every point."""

    def __init__(self):
        super().__init__("nan-oracle", 2)

    def _value(self, x):
        return math.nan

    def _subgradient(self, x):
        return np.zeros(2)


def test_finite_point_with_non_finite_value_raises():
    p = _NanOracle()
    with pytest.raises(NonFiniteValueError):
        p.evaluate(np.zeros(2))
    with pytest.raises(NonFiniteValueError):
        p.value(np.zeros(2))
    with pytest.raises(NonFiniteInputError):
        p.evaluate(np.array([0.0, np.inf]))
    # A real family: at a finite point the residual's squared norm overflows
    # (1e200), or the residual itself does and infinities cancel (1.7e308).
    lsq = make_least_squares_problem(6, 9, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e200, 1.7e308):
            with pytest.raises(NonFiniteValueError):
                lsq.evaluate(np.full(6, scale))
            with pytest.raises(NonFiniteValueError):
                lsq.value(np.full(6, scale))


# ---------------------------------------------------------------------------
# Fused oracles against the reference pair, and the point fast path
# ---------------------------------------------------------------------------

FUSED = {
    "norm-power-d1": lambda: make_norm_power_problem(4, 1.5, 1.0, center=np.arange(4.0) - 1.5),
    "norm-power-d1.5": lambda: make_norm_power_problem(4, 1.5, 1.5, center=np.arange(4.0)),
    "norm-power-d2": lambda: make_norm_power_problem(4, 0.5, 2.0),
    "norm-power-d3": lambda: make_norm_power_problem(4, 2.0, 3.0, center=-np.arange(4.0)),
    # mu * r**d overflows in a Python multiply, not in the power.
    "norm-power-steep": lambda: make_norm_power_problem(4, 1e300, 1.5),
    # x - center can overflow: the oracle takes the guarded reference path.
    "norm-power-far-center": lambda: make_norm_power_problem(
        4, 1.0, 1.5, center=np.array([2.0 ** 1000, 0.0, 0.0, 0.0])),
    "least-squares": lambda: make_least_squares_problem(4, 6, seed=5),
}


def _minimizer(p):
    return p.center.copy() if isinstance(p, NormPowerProblem) else p._pinv @ p.b


@pytest.mark.parametrize("name", FUSED)
def test_fused_oracle_is_bitwise_equal_to_value_and_subgradient(name):
    p = FUSED[name]()
    rng = np.random.default_rng(len(name))
    points = [_minimizer(p)]  # r = 0: a zero subgradient
    points += [_minimizer(p) + rng.normal(scale=3.0, size=4) for _ in range(50)]
    # Far points, where a squared norm, a power or the residual overflows.
    points += [rng.normal(size=4) * scale
               for scale in (1e100, 1e120, 1e150, 1e155, 1e200, 1e300)]
    top = np.finfo(float).max
    points += [np.full(4, top), np.full(4, -top), np.array([-top, top, 0.0, 1.0])]
    finite = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in points:
            value, grad = p._oracle(x)
            assert value.hex() == p._value(x).hex()
            if math.isfinite(value):
                finite += 1
                assert grad.dtype == np.float64
                assert grad.tobytes() == p._subgradient(x).tobytes()
                assert p.evaluate(x).subgradient.tobytes() == grad.tobytes()
            else:
                assert grad is None
                with pytest.raises(NonFiniteValueError):
                    p.evaluate(x)
                with pytest.raises(NonFiniteValueError):
                    p.value(x)
    assert 1 < finite < len(points)
    if isinstance(p, NormPowerProblem):
        assert not p._oracle(p.center)[1].any()


def test_fused_least_squares_oracle_agrees_on_both_sides_of_its_guard():
    p = FUSED["least-squares"]()
    u = np.ones(4) / 2.0  # a unit vector
    for factor in (0.5, 0.999, 1.001, 2.0):
        x = math.sqrt(factor * p._near_sq) * u  # ||x||**2 = factor * the guard
        value, grad = p._oracle(x)
        assert math.isfinite(value)
        assert value.hex() == p._value(x).hex()
        assert grad.tobytes() == p._subgradient(x).tobytes()


def test_piecewise_max_far_finite_point_is_a_typed_error_without_warnings():
    p = make_piecewise_max_problem(6, 20, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # Past the guard, A x is still finite: the reference path answers.
        x = np.full(6, 1e308)
        assert p.evaluate(x).value == p.value(x) == p._value(x) < math.inf
        # Here A x overflows.
        x = np.full(6, 1.7e308)
        with pytest.raises(NonFiniteValueError):
            p.evaluate(x)
        with pytest.raises(NonFiniteValueError):
            p.value(x)


def test_fused_piecewise_max_oracle_agrees_on_both_sides_of_its_guard():
    p = make_piecewise_max_problem(4, 9, seed=5)
    u = np.array([1.0, -1.0, 1.0, 1.0]) / 2.0  # a unit vector
    for factor in (0.5, 0.999, 1.001, 2.0):
        x = math.sqrt(factor * p._near_sq) * u  # ||x||**2 = factor * the guard
        value, grad = p._oracle(x)
        assert math.isfinite(value)
        assert value.hex() == p._value(x).hex()
        assert grad.tobytes() == p._subgradient(x).tobytes()


def _misses_of_the_fast_path(base: np.ndarray) -> dict:
    strided = np.empty(2 * base.size)
    strided[::2] = base
    return {
        "list": base.tolist(),
        "tuple": tuple(base.tolist()),
        "int": np.round(base).astype(np.int64),
        "float32": base.astype(np.float32),
        "strided": strided[::2],
        "column": base.reshape(-1, 1),
        "0-d": np.array(base[0]),
        "non-finite": [math.nan] + base.tolist()[1:],
    }


def test_all_space_projection_returns_a_float64_array_as_is():
    x = np.array([1.5, -2.0])
    assert AllSpace().project(x) is x
    for form, y in _misses_of_the_fast_path(x).items():
        got = AllSpace().project(y)
        assert type(got) is np.ndarray and got.dtype == np.float64, form
        assert got.tobytes() == np.asarray(y, dtype=float).tobytes(), form


@pytest.mark.parametrize("factory", [
    lambda: make_norm_power_problem(3, 1.0, 1.5, center=np.array([0.5, -1.0, 2.0])),
    lambda: make_norm_power_problem(3, 1.0, 1.0, domain=Ball(np.zeros(3), 2.0)),
    lambda: make_norm_power_problem(3, 1.0, 2.0, domain=Box(-np.ones(3), np.ones(3))),
    lambda: make_piecewise_max_problem(3, 9, seed=2),
    lambda: make_least_squares_problem(3, 5, seed=2),
])
def test_points_off_the_fast_path_behave_as_their_float64_array(factory):
    p = factory()
    for form, x in _misses_of_the_fast_path(np.array([1.25, -3.0, 0.5])).items():
        reference = np.asarray(x, dtype=float)
        for query in ("evaluate", "value", "project"):
            try:
                expected = getattr(p, query)(reference)
            except (DimensionMismatchError, NonFiniteInputError) as exc:
                with pytest.raises(type(exc)):
                    getattr(p, query)(x)
                continue
            got = getattr(p, query)(x)
            if query == "evaluate":
                assert got.value.hex() == expected.value.hex(), form
                assert got.subgradient.tobytes() == expected.subgradient.tobytes(), form
            elif query == "value":
                assert got.hex() == expected.hex(), form
            else:
                assert type(got) is np.ndarray and got.dtype == np.float64, form
                assert got.tobytes() == expected.tobytes(), form


@pytest.mark.parametrize("d", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("offset", [[1e-200, 0.0, 0.0], [3e-170, -4e-170, 0.0],
                                    [5e-324, 0.0, 0.0], [0.0, 0.0, 0.0]])
def test_norm_power_keeps_offsets_whose_square_underflows(d, offset):
    # ||offset||^2 lies below the smallest normal float: the plain norm reads 0.
    p = make_norm_power_problem(3, 1.0, d)
    x = np.array(offset)
    r = math.hypot(*offset)
    assert p.distance_to_opt(x) == pytest.approx(r, rel=1e-15, abs=0.0)
    out = p.evaluate(x)
    assert out.value.hex() == p.value(x).hex()
    assert out.value == pytest.approx(r ** d, rel=1e-14, abs=0.0)
    assert out.subgradient.tobytes() == p._subgradient(x).tobytes()
    expected = d * r ** (d - 1.0) * (x / r) if r else np.zeros(3)
    np.testing.assert_allclose(out.subgradient, expected, rtol=1e-14, atol=0.0)
