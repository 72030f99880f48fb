"""Convex test problems: first-order oracles, projections, growth certificates.

Every instance answers two oracle queries at a feasible point ``x``:

* ``value(x)`` — the objective value alone (used for best-value reads that
  the complexity accounting treats as free), and
* ``evaluate(x)`` — the full oracle, returning the value together with one
  subgradient.  Oracle-call accounting throughout the package counts
  ``evaluate`` invocations.

Generated test problems additionally carry :class:`GrowthMetadata` with a
certified growth inequality

    f(x) - f_star >= mu * dist(x, X*)**d    on the initial sublevel set,

an analytic description of the optimal set (so distances are exact), and the
constants needed to evaluate complexity bounds (Lipschitz / smoothness /
Hölder-gradient constants).
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys
from typing import NamedTuple

import numpy as np

from restartfom.errors import (
    DimensionMismatchError,
    NonFiniteInputError,
    NonFiniteValueError,
    ParameterError,
    UnsupportedQueryError,
)


class OracleOutput(NamedTuple):
    """Objective value and one subgradient at the queried point."""

    value: float
    subgradient: np.ndarray


_FLOAT64 = np.dtype(float)
_NORMAL_MIN = 2.0 ** -1022  # the smallest normal float


def _norm(offset: np.ndarray) -> tuple[float, np.ndarray | None]:
    """||offset||; where offset·offset falls below the normal range or
    overflows, also its direction (0 at 0), from the offset scaled by its
    largest entry."""

    square = np.vdot(offset, offset)  # as in NormPowerProblem._oracle
    if not square < _NORMAL_MIN and square != math.inf:
        return math.sqrt(square), None
    scale = float(np.abs(offset).max()) or 1.0
    if scale == math.inf:
        return scale, None
    unit = offset / scale
    length = math.sqrt(np.vdot(unit, unit))
    return scale * length, unit / (length or 1.0)


# ---------------------------------------------------------------------------
# Feasible sets
# ---------------------------------------------------------------------------


class Domain:
    """A closed convex feasible set with a Euclidean projection."""

    def project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def contains(self, x: np.ndarray, tol: float = 1e-12) -> bool:
        return bool(np.linalg.norm(self.project(x) - x) <= tol * (1.0 + np.linalg.norm(x)))


class AllSpace(Domain):
    """The unconstrained domain; projection is the identity."""

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float)  # a float64 ndarray as is

    def contains(self, x: np.ndarray, tol: float = 1e-12) -> bool:
        return True


class Ball(Domain):
    """Euclidean ball ``{x : ||x - center|| <= radius}``."""

    def __init__(self, center: np.ndarray, radius: float):
        if radius <= 0:
            raise ParameterError(f"ball radius must be positive, got {radius}")
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)

    def project(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        offset = x - self.center
        norm = float(np.linalg.norm(offset))
        if norm <= self.radius:
            return x
        return self.center + (self.radius / norm) * offset


class Box(Domain):
    """Axis-aligned box ``{x : lower <= x <= upper}`` (bounds may be infinite)."""

    def __init__(self, lower: np.ndarray, upper: np.ndarray):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.shape != self.upper.shape:
            raise ParameterError("box bounds must have matching shapes")
        if np.any(self.lower > self.upper):
            raise ParameterError("box lower bounds exceed upper bounds")

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)


# ---------------------------------------------------------------------------
# Growth metadata
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class GrowthMetadata:
    """Certified analytic constants of a test problem.

    Attributes
    ----------
    mu, d:
        Growth constants: ``f(x) - f_star >= mu * dist(x, X*)**d`` holds on
        the initial sublevel set.
    f_star:
        The optimal value.
    M:
        Bound on subgradient norms (sharp instances), when constant.
    L:
        Gradient Lipschitz constant (smooth instances).
    M_nu, nu:
        Hölder-gradient constant and exponent,
        ``||grad f(x) - grad f(y)|| <= M_nu * ||x - y||**nu``.
    dist_x0_to_opt:
        Distance from the run's start point to the optimal set; filled in by
        the harness when a bound's large-gap branch needs it.
    """

    mu: float
    d: float
    f_star: float = 0.0
    M: float | None = None
    L: float | None = None
    M_nu: float | None = None
    nu: float | None = None
    dist_x0_to_opt: float | None = None

    def __post_init__(self):
        if not (self.mu > 0):
            raise ParameterError(f"growth constant mu must be positive, got {self.mu}", "mu")
        if self.d < 1:
            raise ParameterError(f"growth degree must be >= 1, got {self.d}", "d")
        if self.nu is not None:
            if not (0.0 <= self.nu <= 1.0):
                raise ParameterError(f"Hölder exponent must lie in [0, 1], got {self.nu}")
            if self.d < 1.0 + self.nu - 1e-15:
                raise ParameterError(
                    f"growth degree {self.d} is incompatible with Hölder exponent "
                    f"{self.nu} (requires d >= 1 + nu)"
                )

    def envelope(self, f_hat: float) -> float:
        """Radius of the sublevel set ``{f <= f_hat}`` around ``X*``.

        Returns ``((f_hat - f_star)/mu)**(1/d)``, which upper-bounds the true
        radius whenever the growth inequality holds and is exact for the
        radial norm-power family.
        """
        if f_hat < self.f_star:
            raise ParameterError(
                f"sublevel value {f_hat} lies below the optimal value {self.f_star}"
            )
        return ((f_hat - self.f_star) / self.mu) ** (1.0 / self.d)


# ---------------------------------------------------------------------------
# Problem instances
# ---------------------------------------------------------------------------


class ProblemInstance:
    """A convex objective over a closed convex domain, with oracles.

    Subclasses implement :meth:`_value` and :meth:`_subgradient`, and may
    override :meth:`_oracle` to compute both in one pass, bitwise equal to
    the pair, which stays as its reference; everything else (validation,
    projection, metadata plumbing) lives here.  Instances are immutable after
    construction and safe to share between copies.
    """

    def __init__(
        self,
        name: str,
        dimension: int,
        domain: Domain | None = None,
        metadata: GrowthMetadata | None = None,
    ):
        self.name = name
        self.dimension = int(dimension)
        self.domain = domain if domain is not None else AllSpace()
        self._unconstrained = type(self.domain) is AllSpace  # project is then the point check
        self.metadata = metadata

    # -- oracle ------------------------------------------------------------

    def _check_point(self, x) -> np.ndarray:
        # np.asarray would return a float64 ndarray as is, at a higher price.
        if type(x) is not np.ndarray or x.dtype is not _FLOAT64:
            x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"{self.name}: expected a point of shape ({self.dimension},), "
                f"got {x.shape}"
            )
        return x

    def _check_value(self, x: np.ndarray, value: float) -> float:
        if math.isfinite(value):  # only a non-finite value pays for a scan of x
            return value
        if not np.all(np.isfinite(x)):
            raise NonFiniteInputError(f"{self.name}: point has non-finite coordinates")
        raise NonFiniteValueError(f"{self.name}: finite point gave the value {value!r}")

    def value(self, x) -> float:
        """Objective value alone (a free read in the oracle accounting)."""
        x = self._check_point(x)
        return self._check_value(x, self._value(x))

    def evaluate(self, x) -> OracleOutput:
        """Full oracle: objective value and one subgradient."""
        x = self._check_point(x)
        value, subgradient = self._oracle(x)
        return OracleOutput(self._check_value(x, value), subgradient)

    def _oracle(self, x: np.ndarray) -> tuple[float, np.ndarray | None]:
        """Value and subgradient; no subgradient when the value is not finite."""
        value = self._value(x)
        return value, self._subgradient(x) if math.isfinite(value) else None

    def _value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def _subgradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- geometry ----------------------------------------------------------

    def project(self, x) -> np.ndarray:
        x = self._check_point(x)
        return x if self._unconstrained else self.domain.project(x)

    def distance_to_opt(self, x) -> float:
        """Exact Euclidean distance to the optimal set."""
        raise UnsupportedQueryError(
            f"{self.name}: no analytic description of the optimal set"
        )

    def growth_envelope(self, f_hat: float) -> float:
        if self.metadata is None:
            raise UnsupportedQueryError(f"{self.name}: no growth metadata")
        return self.metadata.envelope(f_hat)

    def subgradient_norm_bound(self, f_hat: float) -> float:
        """Upper bound on ``||g||`` over the sublevel set ``{f <= f_hat}``;
        here the metadata's constant ``M``, when it carries one."""
        if self.metadata is not None and self.metadata.M is not None:
            return self.metadata.M
        raise UnsupportedQueryError(
            f"{self.name}: no analytic subgradient-norm bound"
        )

    def point_at_gap(self, gap: float, *, rng) -> np.ndarray:
        """A feasible point ``x`` with ``f(x) - f_star == gap`` (to float
        precision), in a direction drawn from ``rng``."""
        raise UnsupportedQueryError(f"{self.name}: cannot place points by gap")

    def _unit_direction(self, rng) -> np.ndarray:
        u = rng.normal(size=self.dimension)
        return u / float(np.linalg.norm(u))


class NormPowerProblem(ProblemInstance):
    """Radial objective ``f(x) = mu * ||x - center||**d`` with ``X* = {center}``.

    The growth inequality holds with equality everywhere, so the growth
    envelope is the exact sublevel radius.  Carried constants:

    * ``d == 1``: subgradient norms equal ``mu`` (``M = mu``);
    * ``d == 2``: the gradient ``2*mu*(x - c)`` is ``2*mu``-Lipschitz;
    * ``1 < d <= 2``: the gradient is Hölder with exponent ``nu = d - 1`` and
      constant ``mu * d * 2**(1 - nu)`` (worst case at antipodal pairs).
    """

    def __init__(self, dimension: int, mu: float, d: float, center, domain: Domain | None = None):
        center = np.asarray(center, dtype=float)
        nu = M = L = M_nu = None
        if d == 1:
            M = mu
        if 1 < d <= 2:
            nu = d - 1
            M_nu = mu * d * 2.0 ** (1.0 - nu)
        if d == 2:
            L = 2.0 * mu
        metadata = GrowthMetadata(mu=mu, d=d, f_star=0.0, M=M, L=L, M_nu=M_nu, nu=nu)
        if not math.isfinite(mu * d):  # the gradient's norm at distance 1 from the center
            raise ParameterError(f"mu * d must be a finite float, got mu = {mu!r}", "mu")
        super().__init__(f"norm-power(d={d:g})", dimension, domain, metadata)
        if center.shape != (self.dimension,):
            raise ParameterError(f"center must have {self.dimension} coordinates", "center")
        if not self.domain.contains(center):
            raise ParameterError("center must be feasible", "center")
        self.center = center
        # While every |center_i| < 2**970, half an ulp of the largest float,
        # x - center overflows at no x, and _oracle needs no np.errstate.
        self._exact_offset = bool(np.all(np.abs(center) < 2.0 ** 970))
        self.mu = float(mu)
        self.d = float(d)

    def _value(self, x: np.ndarray) -> float:
        # A far-away finite point overflows: the norm to inf, or the power
        # to a Python OverflowError; either way the value is inf.
        with np.errstate(over="ignore"):
            r = _norm(x - self.center)[0]
        try:
            return self.mu * r ** self.d
        except OverflowError:
            return math.inf

    def _subgradient(self, x: np.ndarray) -> np.ndarray:
        offset = x - self.center
        r, direction = _norm(offset)
        if direction is None:
            return self._gradient(offset, r)
        # Near the center (at it, 0 is a valid subgradient for every d >= 1), or far out.
        return (self.mu * self.d * r ** (self.d - 1.0)) * direction

    def _gradient(self, offset: np.ndarray, r: float) -> np.ndarray:
        # Where the factor overflows (a tiny r at d < 2), the same gradient from offset / r.
        factor = self.mu * self.d * r ** (self.d - 2.0)
        if factor == math.inf:
            return (self.mu * self.d * r ** (self.d - 1.0)) * (offset / r)
        return factor * offset

    def _oracle(self, x: np.ndarray) -> tuple[float, np.ndarray | None]:
        if not self._exact_offset:
            return super()._oracle(x)
        offset = x - self.center
        # np.vdot raises no floating-point warning, and on a contiguous array
        # the square root has the bits of np.linalg.norm.
        square = np.vdot(offset, offset)
        if square < _NORMAL_MIN or square == math.inf:  # see _norm
            return super()._oracle(x)
        r = math.sqrt(square)
        try:
            value = self.mu * r ** self.d
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            return value, None
        return value, self._gradient(offset, r)

    def distance_to_opt(self, x) -> float:
        return _norm(self._check_point(x) - self.center)[0]

    def subgradient_norm_bound(self, f_hat: float) -> float:
        return self.mu * self.d * self.growth_envelope(f_hat) ** (self.d - 1.0)

    def point_at_gap(self, gap: float, *, rng) -> np.ndarray:
        if gap < 0:
            raise ParameterError("gap must be nonnegative")
        u = self._unit_direction(rng)
        x = self.center + (gap / self.mu) ** (1.0 / self.d) * u
        if not self.domain.contains(x, tol=1e-9):
            raise ParameterError("requested gap places the point outside the domain")
        return x


class PiecewiseMaxProblem(ProblemInstance):
    """Polyhedral objective ``f(x) = max_i (a_i' x + b_i)`` with sharp growth.

    ``minimizer`` must be the unique minimizer with ``f(minimizer) = 0``; the
    metadata's ``mu`` certifies ``f(x) >= mu * ||x - minimizer||``.  At kinks
    the oracle returns the gradient of the active piece with the lowest index.
    """

    def __init__(self, A, b, minimizer, mu: float, domain: Domain | None = None, name: str = "piecewise-max"):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2 or b.shape != (A.shape[0],):
            raise ParameterError("A must be (pieces, dim) with matching offsets b")
        minimizer = np.asarray(minimizer, dtype=float)
        metadata = GrowthMetadata(
            mu=mu, d=1.0, f_star=0.0, M=float(np.linalg.norm(A, axis=1).max())
        )
        super().__init__(name, A.shape[1], domain, metadata)
        self.A = A
        self.b = b
        self.minimizer = minimizer
        # Below this ||x||**2, |a_i' x| <= M ||x|| < 1e150: A x cannot overflow.
        self._near_sq = 1e300 / metadata.M / metadata.M if metadata.M > 0 else math.inf
        value_at_min = self._value(minimizer)
        if abs(value_at_min) > 1e-9:
            raise ParameterError(f"f(minimizer) = {value_at_min}, expected 0")

    def _value(self, x: np.ndarray) -> float:
        # A far finite x overflows A x; evaluate/value report NonFiniteValueError.
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.max(self.A @ x + self.b))

    def _subgradient(self, x: np.ndarray) -> np.ndarray:
        # np.argmax picks the first (lowest-index) maximal piece.
        with np.errstate(over="ignore", invalid="ignore"):
            idx = int(np.argmax(self.A @ x + self.b))
        return self.A[idx].copy()

    def _oracle(self, x: np.ndarray) -> tuple[float, np.ndarray | None]:
        # As in LeastSquaresProblem, a far x takes the guarded reference path.
        if not np.vdot(x, x) < self._near_sq:
            return super()._oracle(x)
        z = self.A.dot(x)  # the bits of A @ x, at a lower price per call
        z += self.b
        idx = int(z.argmax())
        return float(z[idx]), self.A[idx].copy()

    def distance_to_opt(self, x) -> float:
        return _norm(self._check_point(x) - self.minimizer)[0]

    def point_at_gap(self, gap: float, *, rng) -> np.ndarray:
        if gap < 0:
            raise ParameterError("gap must be nonnegative")
        if gap == 0:
            return self.minimizer.copy()
        u = self._unit_direction(rng)
        # Along the ray x = minimizer + t*u the objective is the max of the
        # affine functions t -> slopes*t - margins with nonnegative margins,
        # so the first time it reaches `gap` has the closed form below.
        slopes = self.A @ u
        margins = -(self.A @ self.minimizer + self.b)
        rising = slopes > 0
        if not np.any(rising):
            raise ParameterError("objective does not rise along the given direction")
        t = float(np.min((gap + margins[rising]) / slopes[rising]))
        x = self.minimizer + t * u
        if not self.domain.contains(x, tol=1e-9):
            raise ParameterError("requested gap places the point outside the domain")
        return x


class LeastSquaresProblem(ProblemInstance):
    """Smooth objective ``f(x) = 0.5*||A x - b||**2`` with consistent ``b``.

    ``X* = {x : A x = b}`` is affine; distances use the pseudoinverse.  The
    metadata is exact: ``L = sigma_max(A)**2``, quadratic growth with
    ``mu = sigma_min_positive(A)**2 / 2``, and the growth envelope equals the
    true sublevel radius.
    """

    def __init__(self, A, b, name: str = "least-squares"):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2 or b.shape != (A.shape[0],):
            raise ParameterError("A must be (rows, dim) with a matching vector b")
        singular = np.linalg.svd(A, compute_uv=False)
        positive = singular[singular > singular.max() * 1e-12]
        if positive.size == 0:
            raise ParameterError("A must be nonzero")
        L = float(singular.max() ** 2)
        mu = float(positive.min() ** 2) / 2.0
        metadata = GrowthMetadata(mu=mu, d=2.0, f_star=0.0, L=L, M_nu=L, nu=1.0)
        super().__init__(name, A.shape[1], AllSpace(), metadata)
        self.A = A
        self.b = b
        self._pinv = np.linalg.pinv(A)
        # Below this ||x||**2, ||A x|| <= sqrt(L) ||x|| < 1e150: the residual
        # cannot overflow, and _oracle needs no np.errstate.
        self._near_sq = 1e300 / L
        basis = np.linalg.svd(A, full_matrices=False)[0][:, :positive.size]  # spans A's range
        residual = float(np.linalg.norm(b - basis @ (basis.T @ b)))
        if residual > 1e-8 * max(1.0, math.sqrt(np.vdot(b, b))):  # vdot does not warn at inf
            raise ParameterError("b must lie in the range of A (consistent system)")

    def _value(self, x: np.ndarray) -> float:
        # A far-away finite point overflows the residual (to inf, or to nan
        # where infinities cancel); evaluate/value report NonFiniteValueError.
        with np.errstate(over="ignore", invalid="ignore"):
            r = self.A @ x - self.b
            return 0.5 * float(r @ r)

    def _subgradient(self, x: np.ndarray) -> np.ndarray:
        return self.A.T @ (self.A @ x - self.b)

    def _oracle(self, x: np.ndarray) -> tuple[float, np.ndarray | None]:
        # np.vdot raises no floating-point warning: a far or non-finite x
        # fails the test and takes the guarded reference path.
        if not np.vdot(x, x) < self._near_sq:
            return super()._oracle(x)
        r = self.A @ x - self.b
        value = 0.5 * float(np.vdot(r, r))
        return value, self.A.T @ r if math.isfinite(value) else None

    def distance_to_opt(self, x) -> float:
        x = self._check_point(x)
        return float(np.linalg.norm(self._pinv @ (self.A @ x - self.b)))

    def subgradient_norm_bound(self, f_hat: float) -> float:
        if f_hat < 0:
            raise ParameterError("sublevel value below the optimal value 0")
        return math.sqrt(float(self.metadata.L)) * math.sqrt(2.0 * f_hat)

    def point_at_gap(self, gap: float, *, rng) -> np.ndarray:
        if gap < 0:
            raise ParameterError("gap must be nonnegative")
        u = self._unit_direction(rng)
        # Keep the offset inside the row space so the step is well defined.
        u = self._pinv @ (self.A @ u)
        norm_Au = float(np.linalg.norm(self.A @ u))
        if norm_Au == 0.0:
            raise ParameterError("direction lies in the null space of A")
        x_sol = self._pinv @ self.b
        return x_sol + (math.sqrt(2.0 * gap) / norm_Au) * u


# ---------------------------------------------------------------------------
# Problem specs: one frozen record per family, built deterministically in a seed
# ---------------------------------------------------------------------------


def finite_float(value, field: str) -> float:
    """``value`` as a float if it is a finite real number (no bool), else a ParameterError."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                       and abs(value) <= sys.float_info.max):
        raise ParameterError(f"expected a finite number, got {value!r}", field)
    return float(value)


@dataclasses.dataclass(frozen=True)
class ProblemSpec:
    """A problem family's parameters, each rule on them checked once at construction (a
    :class:`ParameterError` names the field it refuses); ``build(seed)`` makes the instance."""

    dimension: int

    def __post_init__(self):
        if not self.dimension >= 1:
            raise ParameterError(f"dimension must be positive, got {self.dimension}", "dimension")


@dataclasses.dataclass(frozen=True)
class NormPowerSpec(ProblemSpec):
    """Radial test problem ``f(x) = mu*||x - center||**d`` (default center 0);
    the :class:`NormPowerProblem` that construction builds checks its rules."""

    mu: float
    d: float
    center: tuple[float, ...] | None = None

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "mu", finite_float(self.mu, "mu"))
        object.__setattr__(self, "d", finite_float(self.d, "d"))
        if self.center is not None:
            center = tuple(finite_float(x, "center") for x in self.center)
            object.__setattr__(self, "center", center)
        self.build()

    def build(self, seed: int | None = None, domain: Domain | None = None) -> NormPowerProblem:
        """The instance on ``domain`` (all of space by default); no seed enters it."""
        center = np.zeros(self.dimension) if self.center is None else self.center
        return NormPowerProblem(self.dimension, self.mu, self.d, center, domain)


def _regular_simplex_directions(dimension: int) -> np.ndarray:
    """``dimension + 1`` unit vectors forming a regular simplex (sum zero)."""
    k = dimension
    centered = np.eye(k + 1) - np.full((k + 1, k + 1), 1.0 / (k + 1))
    # Orthonormal basis of the sum-zero subspace, via QR of the centered identity.
    q, _ = np.linalg.qr(centered[:, :k])
    coords = centered @ q  # rows: simplex vertices expressed in k coordinates
    return coords / np.linalg.norm(coords, axis=1, keepdims=True)


@dataclasses.dataclass(frozen=True)
class PiecewiseMaxSpec(ProblemSpec):
    """Random polyhedral sharp-growth instance with certified constants.

    The active core is a rotated, scaled cross-polytope (``2*dimension``
    pieces, growth constant ``scale/sqrt(dimension)``) when ``num_pieces``
    allows, else a regular simplex (``dimension + 1`` pieces, growth constant
    ``scale/dimension``).  Remaining pieces are random, strictly inactive at
    the minimizer, and never undercut the core, so the recorded constants are
    valid by construction for every seed.
    """

    num_pieces: int

    def __post_init__(self):
        super().__post_init__()
        if self.num_pieces < self.dimension + 1:
            raise ParameterError(f"need at least dimension + 1 = {self.dimension + 1} pieces, "
                                 f"got {self.num_pieces}", "num_pieces")

    def build(self, seed: int) -> PiecewiseMaxProblem:
        dimension, num_pieces = self.dimension, self.num_pieces
        rng = np.random.default_rng(seed)
        scale = float(rng.uniform(0.5, 2.0))
        center = rng.normal(size=dimension)
        raw = rng.normal(size=(dimension, dimension))
        rotation, upper = np.linalg.qr(raw)
        rotation = rotation * np.sign(np.diag(upper))  # canonical sign choice

        if num_pieces >= 2 * dimension:
            axes = rotation.T  # rows are the rotated coordinate directions
            core = scale * np.vstack([axes, -axes])
            mu = scale / math.sqrt(dimension)
        else:
            core = scale * (_regular_simplex_directions(dimension) @ rotation.T)
            mu = scale / dimension

        extras = num_pieces - core.shape[0]
        if extras > 0:
            directions = rng.normal(size=(extras, dimension))
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            directions *= scale * rng.uniform(0.2, 1.0, size=(extras, 1))
            offsets = scale * rng.uniform(0.1, 1.0, size=extras)
            A = np.vstack([core, directions])
            b = np.concatenate([-core @ center, -directions @ center - offsets])
        else:
            A = core
            b = -core @ center

        return PiecewiseMaxProblem(A, b, center, mu, name=f"piecewise-max(seed={seed})")


@dataclasses.dataclass(frozen=True)
class LeastSquaresSpec(ProblemSpec):
    """Random consistent least-squares instance with controlled spectrum.

    Singular values are drawn uniformly from ``sigma_range`` (the extremes are
    always included, so ``L`` and ``mu`` are exactly the endpoints squared);
    ``rank < dimension`` (default: the dimension) makes the optimal set a
    proper affine subspace.
    """

    num_rows: int
    rank: int | None = None
    sigma_range: tuple[float, float] = (1.0, 2.0)

    def __post_init__(self):
        super().__post_init__()
        if self.num_rows < self.dimension:
            raise ParameterError(f"num_rows must be at least {self.dimension}", "num_rows")
        if self.rank is not None and not 1 <= self.rank <= self.dimension:
            raise ParameterError(f"rank must lie in [1, {self.dimension}], got {self.rank}", "rank")
        sigma_range = tuple(finite_float(x, "sigma_range") for x in self.sigma_range)
        # hi <= 1e154 keeps L = hi**2, with room for the SVD's rounding, a float.
        if len(sigma_range) != 2 or not 0 < sigma_range[0] <= sigma_range[1] <= 1e154:
            raise ParameterError(f"expected [lo, hi] with 0 < lo <= hi <= 1e154, "
                                 f"got {list(sigma_range)}", "sigma_range")
        object.__setattr__(self, "sigma_range", sigma_range)

    def build(self, seed: int) -> LeastSquaresProblem:
        dimension, num_rows = self.dimension, self.num_rows
        rank = dimension if self.rank is None else self.rank
        lo, hi = self.sigma_range
        rng = np.random.default_rng(seed)
        left, _ = np.linalg.qr(rng.normal(size=(num_rows, num_rows)))
        right, _ = np.linalg.qr(rng.normal(size=(dimension, dimension)))
        sigma = np.sort(rng.uniform(lo, hi, size=rank))[::-1]
        if rank >= 2:
            sigma[0], sigma[-1] = hi, lo
        else:
            sigma[0] = hi
        A = left[:, :rank] @ np.diag(sigma) @ right[:, :rank].T
        x_sol = rng.normal(size=dimension)
        return LeastSquaresProblem(A, A @ x_sol, name=f"least-squares(seed={seed})")


PROBLEM_FAMILIES = {"norm-power": NormPowerSpec, "piecewise-max": PiecewiseMaxSpec,
                    "least-squares": LeastSquaresSpec}


def make_norm_power_problem(dimension: int, mu: float, d: float, center=None,
                            domain: Domain | None = None) -> NormPowerProblem:
    """See :class:`NormPowerSpec`."""
    return NormPowerSpec(dimension, mu, d, center).build(domain=domain)


def make_piecewise_max_problem(dimension: int, num_pieces: int, seed: int) -> PiecewiseMaxProblem:
    """See :class:`PiecewiseMaxSpec`."""
    return PiecewiseMaxSpec(dimension, num_pieces).build(seed)


def make_least_squares_problem(dimension: int, num_rows: int, seed: int, *,
                               rank: int | None = None,
                               sigma_range: tuple[float, float] = (1.0, 2.0)
                               ) -> LeastSquaresProblem:
    """See :class:`LeastSquaresSpec`."""
    return LeastSquaresSpec(dimension, num_rows, rank, sigma_range).build(seed)


# ---------------------------------------------------------------------------
# A counting wrapper
# ---------------------------------------------------------------------------


class CountingProblem:
    """Transparent wrapper counting oracle queries (used by accounting tests)."""

    def __init__(self, inner: ProblemInstance):
        self.inner = inner
        self.evaluate_calls = 0
        self.value_calls = 0

    def evaluate(self, x) -> OracleOutput:
        self.evaluate_calls += 1
        return self.inner.evaluate(x)

    def value(self, x) -> float:
        self.value_calls += 1
        return self.inner.value(x)

    def __getattr__(self, attr):
        return getattr(self.inner, attr)
