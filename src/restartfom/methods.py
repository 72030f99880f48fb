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
restart value arrives with the restart point); :func:`prime` makes one call
only when a method that steps from a gradient was restarted at a point whose
gradient nobody has computed yet.  Each step reports its own consumption in
:class:`StepOutcome`, so over any run

    total evaluate() calls == inits + primings + sum(outcome.oracle_calls).

States are exclusively owned by one scheme copy; ``clone()`` supports the
asynchronous engine's discard-on-restart semantics.  No step writes into an
array, so a clone may share its arrays with the original.
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

__all__ = [
    "MethodSpec",
    "MethodState",
    "StepOutcome",
    "accel_step",
    "method_init",
    "method_restart",
    "prime",
    "step",
    "subgrad_step",
    "univ_step",
]

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
        if self.L is not None and not (self.L > 0):
            raise ParameterError(f"smoothness constant L must be positive, got {self.L}")
        if self.L0 is not None and not (self.L0 > 0):
            raise ParameterError(f"curvature guess L0 must be positive, got {self.L0}")


@dataclasses.dataclass(frozen=True)
class StepOutcome:
    """What one step produced and what it cost."""

    new_iterate: np.ndarray
    new_value: float
    oracle_calls: int
    improved: bool
    converged: bool = False


@dataclasses.dataclass
class MethodState:
    """Mutable per-copy method state between (re)starts."""

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
    internal: dict

    @property
    def kind(self) -> str:
        return self.spec.kind

    def clone(self) -> "MethodState":
        # Shallow is enough: steps rebind arrays and internal entries and
        # never write into an array.
        return dataclasses.replace(self, internal=dict(self.internal))

    def _offer(self, point: np.ndarray, value: float, grad: np.ndarray | None) -> bool:
        """Consider an evaluated point for best-since-restart; True if strictly better."""
        if value < self.best_value:
            self.best_point = point.copy()
            self.best_value = value
            self.best_grad = None if grad is None else grad.copy()
            return True
        return False


def _is_zero(g: np.ndarray) -> bool:
    """Whether a subgradient vanishes; the same test as a zero 2-norm."""
    return float(g @ g) == 0.0


def _resolve_L(spec: MethodSpec, problem: ProblemInstance) -> float:
    if spec.L is not None:
        return spec.L
    if problem.metadata is not None and problem.metadata.L is not None:
        return problem.metadata.L
    raise ConfigError(None, "accel needs a smoothness constant L (in the method "
                            "spec or the problem metadata)")


def method_init(
    kind: MethodSpec,
    problem: ProblemInstance,
    start,
    target_accuracy: float,
) -> MethodState:
    """Fresh state at ``start``; makes exactly one oracle call there."""
    if not (target_accuracy > 0):
        raise ParameterError(f"target accuracy must be positive, got {target_accuracy}")
    start = problem.project(np.asarray(start, dtype=float))
    if kind.kind == "accel" and not isinstance(problem.domain, AllSpace):
        raise UnsupportedQueryError("accel supports unconstrained problems only")
    out = problem.evaluate(start)
    grad = out.subgradient
    converged = _is_zero(grad)
    if kind.kind == "subgrad":
        internal = {"grad": grad.copy()}
    elif kind.kind == "accel":
        internal = {
            "L": _resolve_L(kind, problem),
            "t": 1.0,
            "x_prev": start.copy(),
            "y": start.copy(),
            "grad_y": grad.copy(),
        }
    else:
        if kind.L0 is None:
            raise ParameterError("univ needs an initial curvature guess L0")
        internal = {
            "L_hat": kind.L0,
            "A": 0.0,
            "lsum": np.zeros(problem.dimension),
            "y": start.copy(),
            "prox_center": start.copy(),
        }
    return MethodState(
        spec=kind,
        restart_point=start.copy(),
        current_iterate=start.copy(),
        best_point=start.copy(),
        best_value=out.value,
        best_grad=grad.copy(),
        target_accuracy=target_accuracy,
        iterate_index=0,
        converged=converged,
        needs_prime=False,
        internal=internal,
    )


def method_restart(
    state: MethodState,
    problem: ProblemInstance,
    new_start,
    known_value: float,
    known_grad=None,
) -> MethodState:
    """Fresh state at ``new_start`` whose value is already known: no oracle call.

    Momentum (accel) and the curvature estimate (univ, back to the original
    ``L0``) reset.  Methods that step from a gradient are flagged
    ``needs_prime`` when ``known_grad`` is not supplied; :func:`prime` then
    spends the one call.
    """
    new_start = problem.project(np.asarray(new_start, dtype=float))
    grad = None if known_grad is None else np.asarray(known_grad, dtype=float).copy()
    converged = grad is not None and _is_zero(grad)
    spec = state.spec
    if spec.kind == "subgrad":
        internal = {"grad": grad}
        needs_prime = grad is None
    elif spec.kind == "accel":
        internal = {
            "L": state.internal["L"],
            "t": 1.0,
            "x_prev": new_start.copy(),
            "y": new_start.copy(),
            "grad_y": grad,
        }
        needs_prime = grad is None
    else:
        internal = {
            "L_hat": spec.L0,
            "A": 0.0,
            "lsum": np.zeros(problem.dimension),
            "y": new_start.copy(),
            "prox_center": new_start.copy(),
        }
        needs_prime = False
    return MethodState(
        spec=spec,
        restart_point=new_start.copy(),
        current_iterate=new_start.copy(),
        best_point=new_start.copy(),
        best_value=float(known_value),
        best_grad=grad,
        target_accuracy=state.target_accuracy,
        iterate_index=0,
        converged=converged,
        needs_prime=needs_prime,
        internal=internal,
    )


def prime(state: MethodState, problem: ProblemInstance) -> int:
    """Fetch the missing gradient at the restart point; returns calls made (0 or 1)."""
    if not state.needs_prime or state.converged:
        state.needs_prime = False
        return 0
    out = problem.evaluate(state.current_iterate)
    grad = out.subgradient.copy()
    if state.spec.kind == "subgrad":
        state.internal["grad"] = grad
    elif state.spec.kind == "accel":
        state.internal["grad_y"] = grad
    state.best_grad = grad if out.value <= state.best_value else state.best_grad
    state.needs_prime = False
    if _is_zero(grad):
        state.converged = True
    return 1


def _require_primed(state: MethodState) -> None:
    if state.needs_prime:
        raise RestartFomError(
            "method stepped before priming: the restart point's gradient is missing"
        )


def subgrad_step(state: MethodState, problem: ProblemInstance) -> StepOutcome:
    """One projected subgradient step; always exactly one oracle call."""
    if state.spec.kind != "subgrad":
        raise ParameterError(f"subgrad_step on a {state.spec.kind} state")
    _require_primed(state)
    g = state.internal["grad"]
    g_norm_sq = float(g @ g)
    if g_norm_sq == 0.0:
        # Optimal point in hand: no move (and no division), one confirming call.
        out = problem.evaluate(state.current_iterate)
        state.converged = True
        state.iterate_index += 1
        improved = state._offer(state.current_iterate, out.value, out.subgradient)
        return StepOutcome(state.current_iterate.copy(), out.value, 1, improved, True)
    x_new = problem.project(
        state.current_iterate - (state.target_accuracy / g_norm_sq) * g)
    out = problem.evaluate(x_new)
    state.current_iterate = x_new
    state.internal["grad"] = out.subgradient.copy()
    state.iterate_index += 1
    improved = state._offer(x_new, out.value, out.subgradient)
    if _is_zero(out.subgradient):
        state.converged = True
    return StepOutcome(x_new.copy(), out.value, 1, improved, state.converged)


def accel_step(state: MethodState, problem: ProblemInstance) -> StepOutcome:
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
    L = state.internal["L"]
    y = state.internal["y"]
    x_new = y - state.internal["grad_y"] / L
    t_prev = state.internal["t"]
    t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_prev * t_prev))
    y_new = x_new + ((t_prev - 1.0) / t_new) * (x_new - state.internal["x_prev"])
    out = problem.evaluate(y_new)
    f_x = problem.value(x_new)
    state.internal.update(t=t_new, x_prev=x_new.copy(), y=y_new, grad_y=out.subgradient.copy())
    state.current_iterate = x_new
    state.iterate_index += 1
    improved = state._offer(x_new, f_x, None)
    if _is_zero(out.subgradient):
        state.converged = True
    return StepOutcome(x_new.copy(), f_x, 1, improved, state.converged)


def univ_step(state: MethodState, problem: ProblemInstance) -> StepOutcome:
    """One outer iteration of the universal fast gradient method.

    Backtracks on the local curvature estimate: each trial spends two oracle
    calls (the tentative gradient point and the tentative iterate), a failed
    trial doubles the estimate, and an accepted one halves it for the next
    iteration.  All evaluated points feed best-value tracking.
    """
    if state.spec.kind != "univ":
        raise ParameterError(f"univ_step on a {state.spec.kind} state")
    eps_bar = state.target_accuracy
    x0c = state.internal["prox_center"]
    lsum = state.internal["lsum"]
    y = state.internal["y"]
    A = state.internal["A"]
    L_hat = state.internal["L_hat"]
    calls = 0
    improved = False
    for _ in range(LINE_SEARCH_TRIAL_CAP):
        a = (1.0 + math.sqrt(1.0 + 4.0 * L_hat * A)) / (2.0 * L_hat)
        A_plus = A + a
        tau = a / A_plus
        v = problem.project(x0c - lsum)
        x_t = tau * v + (1.0 - tau) * y
        out_x = problem.evaluate(x_t)
        calls += 1
        improved = state._offer(x_t, out_x.value, out_x.subgradient) or improved
        g = out_x.subgradient
        if _is_zero(g):
            # x_t is optimal; commit to it and idle from here on.
            state.internal.update(L_hat=L_hat, A=A_plus, y=x_t.copy())
            state.current_iterate = x_t.copy()
            state.iterate_index += 1
            state.converged = True
            return StepOutcome(x_t.copy(), out_x.value, calls, improved, True)
        x_hat = problem.project(x0c - lsum - a * g)
        y_t = tau * x_hat + (1.0 - tau) * y
        out_y = problem.evaluate(y_t)
        calls += 1
        improved = state._offer(y_t, out_y.value, out_y.subgradient) or improved
        gap_model = (out_x.value + float(g @ (y_t - x_t))
                     + 0.5 * L_hat * float(np.linalg.norm(y_t - x_t) ** 2)
                     + 0.5 * eps_bar * tau)
        if out_y.value <= gap_model:
            state.internal.update(
                L_hat=L_hat / 2.0, A=A_plus, lsum=lsum + a * g, y=y_t.copy())
            state.current_iterate = y_t.copy()
            state.iterate_index += 1
            if _is_zero(out_y.subgradient):
                state.converged = True
            return StepOutcome(y_t.copy(), out_y.value, calls, improved, state.converged)
        L_hat *= 2.0
        state.internal["L_hat"] = L_hat
    raise LineSearchStallError(state.iterate_index + 1, L_hat)


_STEPPERS = {"subgrad": subgrad_step, "accel": accel_step, "univ": univ_step}


def step(state: MethodState, problem: ProblemInstance) -> StepOutcome:
    """Dispatch one iteration of whichever method the state runs."""
    return _STEPPERS[state.spec.kind](state, problem)
