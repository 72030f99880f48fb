"""Restartable first-order methods behind one stepping interface.

Three methods are provided, each driven one iteration at a time by a scheme
engine:

* ``subgrad`` — projected subgradient steps of size ``target/||g||**2``,
* ``accel`` — the constant-step accelerated gradient recursion (two-sequence
  form with momentum weights ``(t_prev - 1)/t``), unconstrained problems only,
* ``univ`` — the universal fast gradient method with backtracking curvature
  search and prox term ``0.5*||x - start||**2``.

Oracle accounting contract: :func:`method_init` makes exactly one oracle call
(the evaluation at the start point); :func:`method_restart` makes none (the
restart value arrives with the restart point); :func:`prime` charges one call
only when a method that steps from a gradient was restarted at a point whose
gradient its copy has not computed: a point it received.  :func:`prime` and
:func:`step` each return the oracle calls they charged, an int, so over any run

    charged calls == inits + sum(prime returns) + sum(step returns),
    evaluate() calls == inits + primes that ran evaluate + sum(step returns).

A prime whose restart point arrived with its sender's gradient is charged but
not evaluated: it reads that gradient, which is ``evaluate(point).subgradient``
because a state's ``best_grad`` is None or the gradient at its ``best_point``.

State is typed: :class:`MethodState` holds what every method keeps, and
:class:`SubgradState`, :class:`AccelState` and :class:`UnivState` add each
method's own recursion; one constructor builds the state of every (re)start.
Ownership rule: :func:`method_init` and :func:`method_restart` copy the
caller's point once (and a known gradient; a sent one stays the sender's
array).  Past that, nothing copies: the problem's ``evaluate`` and ``project``
pass a float64 array of the right shape through as it is (on an ``AllSpace``
instance ``project`` returns its argument), and states and their shallow
``clone()`` share arrays.  That is safe because no
step writes into an array; each one rebinds fields to new arrays.  Each state
is exclusively owned by one scheme copy.  ``clone()`` serves only
``univ``'s discard-on-restart in the asynchronous engine: :func:`calls_ahead`
knows the other methods' calls before they step, so that engine steps them
in place when their call completes.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from restartfom.errors import (
    ConfigError,
    LineSearchStallError,
    ParameterError,
    RestartFomError,
    UnsupportedQueryError,
)
from restartfom.problems import AllSpace, ProblemInstance

_KINDS = ("subgrad", "accel", "univ")

LINE_SEARCH_TRIAL_CAP = 200


@dataclasses.dataclass(frozen=True)
class MethodSpec:
    """Which method to run and its fixed parameters.

    ``L`` (smoothness constant) applies to ``accel`` and falls back to the
    problem metadata when omitted; ``L0`` (initial curvature guess) is
    required for ``univ`` and is reused unchanged at every restart.
    """

    kind: str
    L: float | None = None
    L0: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown method kind {self.kind!r}, expected one of {_KINDS}")
        if self.L is not None and not (self.L > 0 and math.isfinite(self.L)):
            raise ParameterError(f"smoothness constant L must be finite and positive, got {self.L}")
        if self.L0 is not None and not (self.L0 > 0 and math.isfinite(self.L0)):
            raise ParameterError(f"curvature guess L0 must be finite and positive, got {self.L0}")
        if self.kind == "univ" and self.L0 is None:
            raise ParameterError("the univ method requires an initial curvature guess L0", "L0")


@dataclasses.dataclass
class MethodState:
    """Per-copy method state between (re)starts: the fields every method keeps."""

    spec: MethodSpec
    restart_point: np.ndarray
    current_iterate: np.ndarray
    best_point: np.ndarray
    best_value: float
    best_grad: np.ndarray | None
    target_accuracy: float
    iterate_index: int
    converged: bool
    needs_prime: bool

    def clone(self) -> "MethodState":
        # Shallow is enough: steps rebind fields and never write into an array.
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        return twin

    def _offer(self, point: np.ndarray, value: float, grad: np.ndarray | None) -> None:
        """Keep an evaluated point as best-since-restart if it is strictly better."""
        if value < self.best_value:
            self.best_point = point
            self.best_value = value
            self.best_grad = grad


@dataclasses.dataclass
class SubgradState(MethodState):
    """Projected subgradient: the subgradient g at the current iterate, and g·g."""

    grad: np.ndarray | None
    grad_sq: float | None


@dataclasses.dataclass
class AccelState(MethodState):
    """Accelerated gradient: momentum weight t, previous iterate, extrapolated point y."""

    L: float
    t: float
    x_prev: np.ndarray
    y: np.ndarray
    grad_y: np.ndarray | None


@dataclasses.dataclass
class UnivState(MethodState):
    """Universal fast gradient: curvature estimate, weight sum, weighted gradient sum."""

    L_hat: float
    A: float
    lsum: np.ndarray
    y: np.ndarray
    prox_center: np.ndarray


def _is_zero(g: np.ndarray) -> bool:
    """Whether a subgradient vanishes; the same test as a zero 2-norm."""
    return float(np.vdot(g, g)) == 0.0


def resolve_L(spec: MethodSpec, problem: ProblemInstance) -> float:
    """The smoothness constant accel runs with: the spec's, else the metadata's."""
    if spec.L is not None:
        return spec.L
    if problem.metadata is not None and problem.metadata.L is not None:
        return problem.metadata.L
    raise ConfigError(None, "accel needs a smoothness constant L (in the method "
                            "spec or the problem metadata)")


def _fresh_epoch(spec: MethodSpec, problem: ProblemInstance, start: np.ndarray,
                 value: float, grad: np.ndarray | None, target_accuracy: float,
                 sent_grad: np.ndarray | None = None) -> MethodState:
    """The state of every (re)start: ``start`` is the state's own array, its
    value is known, and ``grad`` is None when the copy has not computed its
    gradient; ``sent_grad``, the gradient a message brought, then serves the prime."""
    grad_sq = None if grad is None else float(np.vdot(grad, grad))
    common = dict(
        spec=spec,
        restart_point=start,
        current_iterate=start,
        best_point=start,
        best_value=value,
        best_grad=sent_grad if grad is None else grad,
        target_accuracy=target_accuracy,
        iterate_index=0,
        converged=grad_sq == 0.0,
        needs_prime=grad is None and spec.kind != "univ",
    )
    if spec.kind == "subgrad":
        return SubgradState(**common, grad=grad, grad_sq=grad_sq)
    if spec.kind == "accel":
        return AccelState(**common, L=resolve_L(spec, problem), t=1.0, x_prev=start,
                          y=start, grad_y=grad)
    return UnivState(**common, L_hat=spec.L0, A=0.0, lsum=np.zeros(problem.dimension),
                     y=start, prox_center=start)


def method_init(
    kind: MethodSpec,
    problem: ProblemInstance,
    start,
    target_accuracy: float,
) -> MethodState:
    """Fresh state at ``start``; makes exactly one oracle call there."""
    if not (target_accuracy > 0):
        raise ParameterError(f"target accuracy must be positive, got {target_accuracy}")
    start = problem.project(np.asarray(start, dtype=float)).copy()
    if kind.kind == "accel" and not isinstance(problem.domain, AllSpace):
        raise UnsupportedQueryError("accel supports unconstrained problems only")
    out = problem.evaluate(start)
    return _fresh_epoch(kind, problem, start, out.value, out.subgradient, target_accuracy)


def method_restart(
    state: MethodState,
    problem: ProblemInstance,
    new_start,
    known_value: float,
    known_grad=None,
    sent_grad: np.ndarray | None = None,
) -> MethodState:
    """Fresh state at ``new_start`` whose value is already known: no oracle call.

    Momentum (accel) and the curvature estimate (univ, back to the original
    ``L0``) reset.  Methods that step from a gradient are flagged
    ``needs_prime`` when ``known_grad`` is not supplied; :func:`prime` then
    charges the one call.  ``sent_grad`` is the gradient at ``new_start``
    that came with a received point: the state keeps it, shared, and the
    prime reads it instead of evaluating, unless projecting moved the point.
    """
    point = np.asarray(new_start, dtype=float)
    start = problem.project(point)
    if sent_grad is not None and start is not point and not np.array_equal(start, point):
        sent_grad = None
    grad = None if known_grad is None else np.array(known_grad, dtype=float)
    return _fresh_epoch(state.spec, problem, start.copy(), float(known_value), grad,
                        state.target_accuracy, sent_grad)


def prime(state: MethodState, problem: ProblemInstance) -> int:
    """Fetch the missing gradient at the restart point; returns calls charged
    (0 or 1).  A gradient that came with the point is read, not evaluated."""
    if not state.needs_prime or state.converged:
        state.needs_prime = False
        return 0
    if state.best_grad is None:
        value, grad = problem.evaluate(state.current_iterate)
    else:
        value, grad = state.best_value, state.best_grad
    grad_sq = float(np.vdot(grad, grad))
    if isinstance(state, SubgradState):
        state.grad, state.grad_sq = grad, grad_sq
    elif isinstance(state, AccelState):
        state.grad_y = grad
    state.best_grad = grad if value <= state.best_value else state.best_grad
    state.needs_prime = False
    if grad_sq == 0.0:
        state.converged = True
    return 1


def calls_ahead(state: MethodState) -> int | None:
    """The oracle calls that priming (when due) and one step of ``state`` will
    make, known before they run; None for ``univ``, whose line search decides."""
    if state.spec.kind == "univ":
        return None
    return 1 + state.needs_prime


def _require_primed(state: MethodState) -> None:
    if state.needs_prime:
        raise RestartFomError(
            "method stepped before priming: the restart point's gradient is missing"
        )


def subgrad_step(state: SubgradState, problem: ProblemInstance) -> int:
    """One projected subgradient step; always exactly one oracle call."""
    if state.spec.kind != "subgrad":
        raise ParameterError(f"subgrad_step on a {state.spec.kind} state")
    _require_primed(state)
    g, g_norm_sq = state.grad, state.grad_sq
    if g_norm_sq == 0.0:
        # Optimal point in hand: no move (and no division), one confirming call.
        out = problem.evaluate(state.current_iterate)
        state.converged = True
        state.iterate_index += 1
        state._offer(state.current_iterate, out.value, out.subgradient)
        return 1
    target = state.target_accuracy
    if g_norm_sq == math.inf:  # g·g overflowed: the same step, from g over its largest entry
        scale = float(np.abs(g).max())
        g, target = g / scale, target / scale
        g_norm_sq = float(np.vdot(g, g))
    x_new = problem.project(state.current_iterate - (target / g_norm_sq) * g)
    out = problem.evaluate(x_new)
    g = out.subgradient
    state.current_iterate = x_new
    state.grad, state.grad_sq = g, float(np.vdot(g, g))
    state.iterate_index += 1
    state._offer(x_new, out.value, g)
    if state.grad_sq == 0.0:
        state.converged = True
    return 1


def accel_step(state: AccelState, problem: ProblemInstance) -> int:
    """One accelerated gradient iteration.

    The gradient step uses the gradient already in hand at the extrapolated
    point; the step's single oracle call happens at the *next* extrapolated
    point, and the new iterate's value arrives through a free value read.
    An epoch of K steps therefore costs exactly K+1 calls including the one
    spent at (re)start.
    """
    if state.spec.kind != "accel":
        raise ParameterError(f"accel_step on a {state.spec.kind} state")
    _require_primed(state)
    x_new = state.y - state.grad_y / state.L
    t_prev = state.t
    t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_prev * t_prev))
    y_new = x_new + ((t_prev - 1.0) / t_new) * (x_new - state.x_prev)
    out = problem.evaluate(y_new)
    f_x = problem.value(x_new)
    state.t, state.x_prev, state.y, state.grad_y = t_new, x_new, y_new, out.subgradient
    state.current_iterate = x_new
    state.iterate_index += 1
    state._offer(x_new, f_x, None)
    if _is_zero(out.subgradient):
        state.converged = True
    return 1


def univ_step(state: UnivState, problem: ProblemInstance) -> int:
    """One outer iteration of the universal fast gradient method.

    Backtracks on the local curvature estimate: each trial spends two oracle
    calls (the tentative gradient point and the tentative iterate), a failed
    trial doubles the estimate, and an accepted one halves it for the next
    iteration.  All evaluated points feed best-value tracking.
    """
    if state.spec.kind != "univ":
        raise ParameterError(f"univ_step on a {state.spec.kind} state")
    eps_bar = state.target_accuracy
    x0c = state.prox_center
    lsum = state.lsum
    y = state.y
    A = state.A
    L_hat = state.L_hat
    calls = 0
    for _ in range(LINE_SEARCH_TRIAL_CAP):
        a = (1.0 + math.sqrt(1.0 + 4.0 * L_hat * A)) / (2.0 * L_hat)
        A_plus = A + a
        tau = a / A_plus
        v = problem.project(x0c - lsum)
        x_t = tau * v + (1.0 - tau) * y
        out_x = problem.evaluate(x_t)
        calls += 1
        state._offer(x_t, out_x.value, out_x.subgradient)
        g = out_x.subgradient
        if _is_zero(g):
            # x_t is optimal; commit to it and idle from here on.
            state.L_hat, state.A, state.y = L_hat, A_plus, x_t
            state.current_iterate = x_t
            state.iterate_index += 1
            state.converged = True
            return calls
        # At a tiny L_hat, a * g may overflow: evaluate(y_t) below refuses a non-finite point.
        with np.errstate(over="ignore", invalid="ignore"):
            x_hat = problem.project(x0c - lsum - a * g)
        y_t = tau * x_hat + (1.0 - tau) * y
        out_y = problem.evaluate(y_t)
        calls += 1
        state._offer(y_t, out_y.value, out_y.subgradient)
        gap_model = (out_x.value + float(g @ (y_t - x_t))
                     + 0.5 * L_hat * float(np.linalg.norm(y_t - x_t) ** 2)
                     + 0.5 * eps_bar * tau)
        if out_y.value <= gap_model:
            state.L_hat, state.A, state.y = L_hat / 2.0, A_plus, y_t
            state.lsum = lsum + a * g
            state.current_iterate = y_t
            state.iterate_index += 1
            if _is_zero(out_y.subgradient):
                state.converged = True
            return calls
        L_hat *= 2.0
        state.L_hat = L_hat
    raise LineSearchStallError(state.iterate_index + 1, L_hat)


_STEPPERS = {"subgrad": subgrad_step, "accel": accel_step, "univ": univ_step}


def step(state: MethodState, problem: ProblemInstance) -> int:
    """One iteration of whichever method the state runs; returns its oracle calls."""
    return _STEPPERS[state.spec.kind](state, problem)
