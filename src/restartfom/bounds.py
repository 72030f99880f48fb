"""Closed-form complexity bounds for the restart schemes.

Two layers live here.  The bottom layer is per-method iteration/time budgets
for reaching a target accuracy ``eps_bar`` from a start within distance
``delta`` of the optimal set: :func:`k_subgrad`, :func:`k_accel`,
:func:`k_univ`, and the oracle-call budget :func:`t_univ` with its
bookkeeping constant :func:`c_const`.  The top layer evaluates the guarantees
for whole scheme runs — synchronous period counts and asynchronous clock-time
budgets — as :class:`BoundReport` objects with per-term breakdowns, so a
violated guarantee can be localized to a single term.

Conventions shared by all scheme-level bounds:

* ``N`` is the ladder height (copies run for targets ``2**n * eps``,
  ``n = -1..N``); ``n_bar`` is the first rung whose windowed target already
  covers the initial gap.
* When ``f(x0) - f_star < 5 * 2**N * eps`` the "below-5-2^N" regime applies
  and sums run to ``n_bar``; otherwise the sums run to ``N`` and an add-on
  term charges for closing the extra initial distance (which requires
  ``dist_x0_to_opt`` in the metadata).
* Totals are left real-valued; only the inner per-epoch budgets are floored.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from typing import Callable

from restartfom.errors import ParameterError, UnsupportedQueryError
from restartfom.problems import GrowthMetadata

EPS_MIN = sys.float_info.min  # the smallest normal float; 1/eps can overflow below it

REGIME_STAGED = "below-5-2^N"
REGIME_ADD_ON = "add-on"


# ---------------------------------------------------------------------------
# Per-method budgets
# ---------------------------------------------------------------------------


def _check_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not (value > 0):
            raise ParameterError(f"{name} must be positive, got {value}")


def k_subgrad(M: float, delta: float, eps_bar: float) -> int:
    """Iterations sufficient for the projected subgradient method.

    ``floor((M*delta/eps_bar)**2)`` epochs of step size ``eps_bar/||g||^2``
    reach a point with gap ``<= eps_bar`` from any start within distance
    ``delta`` of the optimal set.
    """
    _check_positive(M=M, eps_bar=eps_bar)
    if delta < 0:
        raise ParameterError(f"delta must be nonnegative, got {delta}")
    return math.floor((M * delta / eps_bar) ** 2)


def k_accel(L: float, delta: float, eps_bar: float) -> int:
    """Iterations sufficient for the accelerated gradient method:
    ``floor(2*delta*sqrt(L/eps_bar))``."""
    _check_positive(L=L, eps_bar=eps_bar)
    if delta < 0:
        raise ParameterError(f"delta must be nonnegative, got {delta}")
    return _k_fast_gradient(2.0, L, 1.0, delta, eps_bar)


def k_univ(M_nu: float, nu: float, delta: float, eps_bar: float) -> int:
    """Iterations sufficient for the universal fast gradient method.

    ``floor(2**((3+5*nu)/(1+3*nu)) * (M_nu * delta**(1+nu) / eps_bar)**(2/(1+3*nu)))``.
    """
    _check_positive(M_nu=M_nu, eps_bar=eps_bar)
    if not (0.0 <= nu <= 1.0):
        raise ParameterError(f"nu must lie in [0, 1], got {nu}")
    if delta < 0:
        raise ParameterError(f"delta must be nonnegative, got {delta}")
    lead = 2.0 ** ((3.0 + 5.0 * nu) / (1.0 + 3.0 * nu))
    return _k_fast_gradient(lead, M_nu, nu, delta, eps_bar)


def _k_fast_gradient(lead: float, M: float, nu: float, delta: float, eps_bar: float) -> int:
    """``floor(lead * delta**((1+nu)*p) * (M/eps_bar)**p)`` with ``p = 2/(1+3*nu)``.

    :func:`k_accel` and :func:`k_univ` share this one expression so that at
    ``nu == 1`` the universal budget is exactly ``floor(2*y)`` where the
    accelerated one is ``floor(y)``: their leads differ by a factor of 2,
    which scales every rounding step exactly.
    """
    p = 2.0 / (1.0 + 3.0 * nu)
    return math.floor(lead * delta ** ((1.0 + nu) * p) * (M / eps_bar) ** p)


def _log2_or_zero(coefficient: float, base: float) -> float:
    # A zero coefficient annihilates its log term even when the base would be
    # awkward (e.g. delta terms at nu = 1); keep that exact.
    if coefficient == 0.0:
        return 0.0
    return coefficient * math.log2(base)


def _line_search_logs(lead: float, delta: float, inv_eps: float, nu: float,
                      M_nu: float, L0: float) -> float:
    """``lead + log2(delta**((1-nu)/(2*q)) * inv_eps**(3*(1-nu)/q)
    * M_nu**(4/q)) - 2*log2(L0)`` with ``q = 1 + 3*nu``, summed left to right."""
    q = 1.0 + 3.0 * nu
    return (
        lead
        + _log2_or_zero((1.0 - nu) / (2.0 * q), delta)
        + _log2_or_zero(3.0 * (1.0 - nu) / q, inv_eps)
        + _log2_or_zero(4.0 / q, M_nu)
        - 2.0 * math.log2(L0)
    )


def c_const(delta: float, eps: float, nu: float, M_nu: float, L0: float) -> float:
    """Per-restart overhead constant of the universal method's line search.

    ``4 + log2(delta**((1-nu)/(2*(1+3*nu))) * (2/eps)**(3*(1-nu)/(1+3*nu))
    * M_nu**(4/(1+3*nu))) - 2*log2(L0)``; independent of ``eps`` when
    ``nu == 1``.
    """
    _check_positive(delta=delta, eps=eps, M_nu=M_nu, L0=L0)
    return _line_search_logs(4.0, delta, 2.0 / eps, nu, M_nu, L0)


def t_univ(M_nu: float, nu: float, delta: float, eps_bar: float, L0: float) -> float:
    """Oracle calls sufficient for the universal fast gradient method.

    ``4*(k_univ + 1)`` plus the line-search logarithm terms.  Requires an
    admissible ``L0`` (see :func:`l0_admissible`).
    """
    _check_positive(delta=delta, eps_bar=eps_bar, M_nu=M_nu, L0=L0)
    logs = _line_search_logs(0.0, delta, 1.0 / eps_bar, nu, M_nu, L0)
    return 4.0 * (k_univ(M_nu, nu, delta, eps_bar) + 1) + logs


def l0_admissible(M_nu: float, nu: float, eps_bar: float, L0: float) -> bool:
    """Whether the initial curvature guess is small enough for :func:`t_univ`.

    The budget assumes ``L0 <= ((1-nu)/(1+nu) * 1/eps_bar)**((1-nu)/(1+nu))
    * M_nu**(2/(1+nu))``, which degenerates to ``L0 <= M_nu`` at ``nu == 1``.
    """
    _check_positive(M_nu=M_nu, eps_bar=eps_bar, L0=L0)
    if not (0.0 <= nu <= 1.0):
        raise ParameterError(f"nu must lie in [0, 1], got {nu}")
    if nu == 1.0:
        return L0 <= M_nu
    ratio = (1.0 - nu) / (1.0 + nu)
    return L0 <= (ratio / eps_bar) ** ratio * M_nu ** (2.0 / (1.0 + nu))


# ---------------------------------------------------------------------------
# Ladder geometry
# ---------------------------------------------------------------------------


def default_N(eps: float) -> int:
    """Default ladder height ``max(-1, ceil(log2(1/eps)))``."""
    if not (EPS_MIN <= eps < math.inf):
        raise ParameterError(f"eps must be finite and at least {EPS_MIN!r}, got {eps!r}")
    # Integer-exact: the smallest k >= -1 with 2**(-k) <= eps, robust to log
    # rounding; starting at -1 or above keeps 2**(-k) from overflowing.
    k = max(-1, math.ceil(math.log2(1.0 / eps)))
    while 2.0 ** (-k) > eps:
        k += 1
    while k > -1 and 2.0 ** (-(k - 1)) <= eps:
        k -= 1
    return k


def n_bar(f_x0_gap: float, eps: float) -> int:
    """Smallest integer ``n >= -1`` with ``f_x0_gap < 5 * 2**n * eps``."""
    _check_positive(f_x0_gap=f_x0_gap, eps=eps)
    n = -1
    while not (f_x0_gap < 5.0 * 2.0 ** n * eps):
        n += 1
    return n


# ---------------------------------------------------------------------------
# Scheme-level reports
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class BoundReport:
    """One evaluated guarantee: a total plus the per-term breakdown.

    ``total`` is always the sum of the term values.  ``regime`` records which
    branch applied; ``assumptions_ok`` is False when a hypothesis of the
    guarantee fails on this instance (initial gap not above ``eps``, or an
    inadmissible curvature guess), in which case the numbers are evaluated
    anyway but carry no promise.
    """

    which: str
    N_bar: int
    total: float
    terms: list[tuple[str, float]]
    regime: str
    assumptions_ok: bool

    def to_json(self) -> dict:
        return {
            "which": self.which,
            "n_bar": self.N_bar,
            "total": self.total,
            "terms": [[label, value] for label, value in self.terms],
            "regime": self.regime,
            "assumptions_ok": self.assumptions_ok,
        }


def _require_metadata(metadata: GrowthMetadata | None, eps: float,
                      which: str) -> GrowthMetadata:
    """``metadata`` once it is present and ``eps`` is positive."""
    if metadata is None:
        raise UnsupportedQueryError(f"bound_{which}: problem carries no growth metadata")
    _check_positive(eps=eps)
    return metadata


def _ladder(metadata: GrowthMetadata, f_x0: float, eps: float, N: int,
            which: str) -> tuple[float, int, bool, int]:
    """The initial gap, ``n_bar``, whether the staged regime applies, and the
    top rung the sums run to (``n_bar`` when staged, else ``N``)."""
    gap = f_x0 - metadata.f_star
    if gap <= 0:
        raise ParameterError(
            f"bound_{which}: f(x0) = {f_x0} does not exceed f_star = {metadata.f_star}")
    nb = n_bar(gap, eps)
    staged = gap < 5.0 * 2.0 ** N * eps
    return gap, nb, staged, nb if staged else N


def _report(which: str, metadata: GrowthMetadata, nb: int, staged: bool,
            terms: list[tuple[str, float]], add_on: Callable[[float], float],
            assumptions_ok: bool) -> BoundReport:
    """The report, with ``add_on(dist_x0_to_opt)`` appended in the large-gap regime."""
    if not staged:
        if metadata.dist_x0_to_opt is None:
            raise UnsupportedQueryError(
                f"bound_{which}: large-gap regime needs dist_x0_to_opt in the metadata"
            )
        terms.append(("initial-distance add-on", add_on(metadata.dist_x0_to_opt)))
    total = float(sum(value for _, value in terms))
    return BoundReport(which, nb, total, terms,
                       REGIME_STAGED if staged else REGIME_ADD_ON, assumptions_ok)


def _theorem(which: str, metadata: GrowthMetadata, f_x0: float, eps: float, N: int,
             budget: Callable[[float, float], float],
             overheads: Callable[[int], list[tuple[str, float]]]) -> BoundReport:
    """The per-rung sum both theorems share; they differ in ``overheads(top)`` only."""
    gap, nb, staged, top = _ladder(metadata, f_x0, eps, N, which)
    terms = overheads(top)
    for n in range(-1, top + 1):
        eps_n = 2.0 ** n * eps
        D_n = metadata.envelope(metadata.f_star + min(5.0 * eps_n, gap))
        terms.append((f"copy[n={n}]", 3.0 * budget(D_n, eps_n)))
    return _report(which, metadata, nb, staged, terms,
                   lambda dist: float(budget(dist, 2.0 ** N * eps)),
                   assumptions_ok=gap > eps)


def bound_sync_theorem(
    metadata: GrowthMetadata,
    f_x0: float,
    eps: float,
    N: int,
    method_k: Callable[[float, float], float],
) -> BoundReport:
    """Synchronous guarantee: periods until some copy holds an eps-solution.

    ``method_k(delta, eps_bar)`` is the per-epoch iteration budget of the
    plugged-in method.  Staged regime: ``n_bar + 1`` startup periods plus
    ``3 * sum_n method_k(D_n, 2**n * eps)`` with
    ``D_n = min(envelope(5 * 2**n * eps), envelope(initial gap))``.  Large-gap
    regime: same shape with ``N`` in place of ``n_bar``, plus one epoch budget
    for closing the initial distance at the top rung.
    """
    metadata = _require_metadata(metadata, eps, "sync_theorem")
    return _theorem("sync_theorem", metadata, f_x0, eps, N, method_k,
                    lambda top: [("startup", float(top + 1))])


def bound_cor_subgrad(metadata: GrowthMetadata, f_x0: float, eps: float, N: int) -> BoundReport:
    """Synchronous guarantee specialized to the subgradient method.

    Closed form in the growth constants; no per-rung envelope evaluation.
    Sharp growth (``d == 1``) gives a rung-independent epoch cost; ``d > 1``
    gives a geometric sum capped by ``n_bar + 5`` rungs.
    """
    metadata = _require_metadata(metadata, eps, "cor_subgrad")
    if metadata.M is None:
        raise UnsupportedQueryError("bound_cor_subgrad: metadata lacks the Lipschitz bound M")
    gap, nb, staged, top = _ladder(metadata, f_x0, eps, N, "cor_subgrad")
    M, mu, d = metadata.M, metadata.mu, metadata.d
    terms: list[tuple[str, float]] = [("startup", float(top + 1))]
    if d == 1.0:
        terms.append(("epochs", 3.0 * (top + 2) * (5.0 * M / mu) ** 2))
    else:
        e = 1.0 - 1.0 / d
        lead = 3.0 * (5.0 ** (1.0 / d) * M / (mu ** (1.0 / d) * eps ** e)) ** 2
        terms.append(("epochs", lead * min(16.0 ** e / (4.0 ** e - 1.0), top + 5.0)))
    return _report("cor_subgrad", metadata, nb, staged, terms,
                   lambda dist: (M * dist / (2.0 ** N * eps)) ** 2,
                   assumptions_ok=gap > eps)


def bound_cor_accel(metadata: GrowthMetadata, f_x0: float, eps: float, N: int) -> BoundReport:
    """Synchronous guarantee specialized to the accelerated gradient method.

    Requires smoothness, hence growth degree ``d >= 2``.
    """
    metadata = _require_metadata(metadata, eps, "cor_accel")
    if metadata.L is None:
        raise UnsupportedQueryError("bound_cor_accel: metadata lacks the smoothness constant L")
    if metadata.d < 2.0:
        raise ParameterError(
            f"bound_cor_accel: smooth objectives have growth degree >= 2, got {metadata.d}"
        )
    gap, nb, staged, top = _ladder(metadata, f_x0, eps, N, "cor_accel")
    L, mu, d = metadata.L, metadata.mu, metadata.d
    terms: list[tuple[str, float]] = [("startup", float(top + 1))]
    if d == 2.0:
        terms.append(("epochs", 6.0 * (top + 2) * math.sqrt(5.0 * L / mu)))
    else:
        e = 0.5 - 1.0 / d
        lead = 6.0 * (5.0 / mu) ** (1.0 / d) * math.sqrt(L) / eps ** e
        terms.append(("epochs", lead * min(4.0 ** e / (2.0 ** e - 1.0), top + 3.0)))
    return _report("cor_accel", metadata, nb, staged, terms,
                   lambda dist: 2.0 * dist * math.sqrt(L / (2.0 ** N * eps)),
                   assumptions_ok=gap > eps)


def bound_async_theorem(
    metadata: GrowthMetadata,
    f_x0: float,
    eps: float,
    N: int,
    tau_transit: float,
    tau_pause: float,
    method_t: Callable[[float, float], float],
) -> BoundReport:
    """Asynchronous guarantee: clock time until an eps-solution is in hand.

    ``method_t(delta, eps_bar)`` is the per-epoch oracle-call (time) budget.
    Adds transit and pause overhead to three times the per-rung budgets;
    the large-gap regime substitutes ``N`` for ``n_bar`` throughout and adds
    one top-rung budget for the initial distance.
    """
    metadata = _require_metadata(metadata, eps, "async_theorem")
    if tau_transit < 0 or tau_pause < 0:
        raise ParameterError("delay bounds must be nonnegative")
    return _theorem("async_theorem", metadata, f_x0, eps, N, method_t,
                    lambda top: [("transit", (top + 1) * tau_transit),
                                 ("pauses", 2.0 * (top + 2) * tau_pause)])


def bound_cor_univ(
    metadata: GrowthMetadata,
    f_x0: float,
    eps: float,
    N: int,
    tau_transit: float,
    tau_pause: float,
    L0: float,
) -> BoundReport:
    """Asynchronous guarantee specialized to the universal method.

    Splits on whether the growth degree matches the Hölder exponent
    (``d == 1 + nu``, rung-independent epoch cost) or exceeds it (geometric
    sum capped at ``n_bar + 5`` rungs).  ``assumptions_ok`` additionally
    checks that ``L0`` is admissible at the tightest rung target ``eps/2``.
    """
    metadata = _require_metadata(metadata, eps, "cor_univ")
    _check_positive(L0=L0)
    if tau_transit < 0 or tau_pause < 0:
        raise ParameterError("delay bounds must be nonnegative")
    if metadata.M_nu is None or metadata.nu is None:
        raise UnsupportedQueryError("bound_cor_univ: metadata lacks Hölder constants")
    M_nu, nu, mu, d = metadata.M_nu, metadata.nu, metadata.mu, metadata.d
    if d < 1.0 + nu - 1e-15:
        raise ParameterError(f"bound_cor_univ: requires d >= 1 + nu, got d={d}, nu={nu}")
    gap, nb, staged, top = _ladder(metadata, f_x0, eps, N, "cor_univ")
    q = 1.0 + 3.0 * nu
    lead = 2.0 ** ((3.0 + 5.0 * nu) / q)
    delta0 = metadata.envelope(f_x0)
    terms: list[tuple[str, float]] = [
        ("transit", (top + 1) * tau_transit),
        ("pauses", 2.0 * (top + 2) * tau_pause),
        ("line-search overhead", 3.0 * (top + 2) * c_const(delta0, eps, nu, M_nu, L0)),
    ]
    if abs(d - (1.0 + nu)) <= 1e-12:
        terms.append(("epochs", 12.0 * (top + 2) * lead * (5.0 * M_nu / mu) ** (2.0 / q)))
    else:
        e = (1.0 - (1.0 + nu) / d) * 2.0 / q
        body = (M_nu * (5.0 / mu) ** ((1.0 + nu) / d) / eps ** (1.0 - (1.0 + nu) / d)) ** (2.0 / q)
        terms.append(("epochs", 12.0 * lead * body * min(4.0 ** e / (2.0 ** e - 1.0), top + 5.0)))
    eps_N = 2.0 ** N * eps
    return _report("cor_univ", metadata, nb, staged, terms,
                   lambda dist: (4.0 * lead * (M_nu * dist ** (1.0 + nu) / eps_N) ** (2.0 / q)
                                 + c_const(dist, eps_N, nu, M_nu, L0)),
                   assumptions_ok=gap > eps and l0_admissible(M_nu, nu, 0.5 * eps, L0))
