"""The restart ladder shared by every engine, and its lock-step scheduler.

Copies FOM_n for n = -1..N all start from the same point; copy n works on
the task of improving its reference value by 2^n * eps and hands every
fulfilling point down to copy n - 1.  :class:`Ladder` owns that rule, and its
trace is the run's only tally; an engine only decides when copies iterate and
when messages become readable.

The top copy never restarts: when its best value fulfills the task it
moves its reference there, sends the point downward, and keeps iterating.
Every other copy restarts at a fulfilling point and forwards it to the next
copy down.  The point is the better of its own best point and a candidate
message; the engine supplies only its tie rule.

The lock-step engine advances all copies one iteration per unit period, with
messages sent in period p becoming readable in period p + 1; the sequential
mode interleaves the same copies on a single worker, sweeping from copy N
down to copy -1 so that a message becomes readable later in the same sweep.
A copy's candidate is the newest readable message in its inbox, and a tie
prefers the inbox.  Restart chores, priming evaluations, and the first
post-restart iteration all land in the period of the restart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from restartfom.bounds import default_N, n_bar
from restartfom.errors import ParameterError
from restartfom.methods import MethodSpec, MethodState, method_init, method_restart, prime, step
from restartfom.problems import ProblemInstance
from restartfom.traces import SchemeTrace, summarize

DEFAULT_BUDGET = 100_000.0  # periods, slots or simulated time units


@dataclass
class LadderCopy:
    """One copy of the method and its task: to beat ``reference``, the value
    the copy was last (re)started from, by ``decrement`` = 2^index * eps."""

    index: int
    reference: float
    decrement: float
    method: MethodState

    def fulfills(self, value: float) -> bool:
        """Whether ``value`` accomplishes the task: at most ``reference - decrement``,
        and below ``reference`` even where that difference rounds back to it."""

        return value <= self.reference - self.decrement and value < self.reference


class Message(NamedTuple):
    """A point and its objective value in flight from ``sender`` downward."""

    point: tuple[float, ...]
    value: float
    sender: int


class Ladder:
    """The N + 2 copies and the restart rule; subclasses schedule them.

    A subclass sets ``copy_class`` and implements ``deliver(copy, message,
    now)``, which hands a message sent by ``copy`` to copy ``index - 1``.
    """

    copy_class = LadderCopy

    def __init__(self, problem: ProblemInstance, method_kind, eps: float,
                 N: int | None, budget: float):
        if not (eps > 0.0):
            raise ParameterError(f"eps must be positive, got {eps}")
        if not (eps / 2.0 > 0.0):
            raise ParameterError(f"eps = {eps} leaves the bottom rung's decrement eps / 2 at 0")
        if budget < 0:
            raise ParameterError(f"budget must be nonnegative, got {budget}")
        if N is None:
            N = default_N(eps)
        if N < -1:
            raise ParameterError(f"N must be at least -1, got {N}")
        if N >= 1024 or not math.isfinite(2.0 ** N * eps):
            raise ParameterError(f"N = {N} puts the top rung 2^N * eps beyond the float range")
        self.problem = problem
        self.spec = (method_kind if isinstance(method_kind, MethodSpec)
                     else MethodSpec(str(method_kind)))
        self.eps = eps
        self.N = N
        self.budget = budget
        self.trace = SchemeTrace()
        self.copies: dict[int, LadderCopy] = {}
        self.oracle_calls = 0
        self.f_star = problem.metadata.f_star if problem.metadata is not None else None
        self.time_to_eps: float | None = None

    def spin_up(self, x0) -> None:
        """Start every copy at ``x0``, top first; stop after the top copy
        (with ``time_to_eps`` 0) when ``x0`` already solves the problem."""

        for n in range(self.N, -2, -1):
            decrement = (2.0 ** n) * self.eps
            state = method_init(self.spec, self.problem, x0, decrement)
            self.oracle_calls += 1
            self.copies[n] = self.copy_class(n, state.best_value, decrement, state)
            self.trace.record(0.0, n, "init", state.best_value)
            if n == self.N and self.solved(0.0, state.best_value):
                return

    def solved(self, now: float, best_value: float) -> bool:
        """Whether ``best_value`` is within eps of f*; records ``now`` if so.
        Engines pass the best value of the copies that iterated since the last
        check: a restart installs only a value some copy already held, so no
        other copy's value can have dropped."""

        if self.f_star is not None and best_value - self.f_star <= self.eps:
            self.time_to_eps = now
            return True
        return False

    def log_action(self, copy: LadderCopy, kind: str, point, value: float, now: float,
                   source: str | None = None) -> None:
        """Log a restart or task update; above copy -1 the same event records
        the send of ``point`` to the receiver, copy index - 1."""

        point = point if isinstance(point, tuple) else tuple(point.tolist())  # shared, immutable
        receiver = copy.index - 1 if copy.index > -1 else None
        self.trace.record(now, copy.index, kind, value, point, receiver=receiver, source=source)
        if receiver is not None:
            self.deliver(copy, Message(point, value, copy.index), now)

    def update_top(self, copy: LadderCopy, now: float) -> None:
        """The top copy's rule: on a fulfilling value, move the reference there
        and send, no restart."""

        if copy.fulfills(copy.method.best_value):
            copy.reference = copy.method.best_value
            self.log_action(copy, "task-update", copy.method.best_point, copy.reference, now)

    def restart(self, copy: LadderCopy, point, value: float, known_grad,
                source: str, now: float) -> None:
        """Restart ``copy`` at a fulfilling point and send the point down."""

        copy.reference = value
        copy.method = method_restart(copy.method, self.problem, point, value, known_grad)
        self.log_action(copy, "restart", point, value, now, source)

    def restart_at_best(self, copy: LadderCopy, candidate: Message | None,
                        inbox_wins_tie: bool, now: float) -> bool:
        """The restart rule: restart ``copy`` at the better of ``candidate``
        and its own best point when that point fulfills the task.  The engine
        says which wins a tie; returns whether the copy restarted."""

        own = copy.method
        if candidate is not None and (candidate.value <= own.best_value if inbox_wins_tie
                                      else candidate.value < own.best_value):
            if copy.fulfills(candidate.value):
                self.restart(copy, candidate.point, candidate.value, None, "inbox", now)
                return True
        elif copy.fulfills(own.best_value):
            self.restart(copy, own.best_point, own.best_value, own.best_grad, "own", now)
            return True
        return False

    def iterate(self, state: MethodState) -> int:
        """Prime ``state`` if it needs it, step it once, and count the calls."""

        calls = prime(state, self.problem) if state.needs_prime else 0
        calls += step(state, self.problem)
        self.oracle_calls += calls
        return calls

    def summary(self, scheme: str, delay_model: dict | None, **timing) -> dict:
        """The run's summary record; ``timing`` holds the scheme's own clocks."""

        tally = summarize(self.trace, self.f_star, self.eps)
        gap = None if self.f_star is None else tally["f_x0"] - self.f_star
        return {"scheme": scheme, "method": self.spec.kind, "eps": self.eps, "N": self.N,
                "n_bar": n_bar(gap, self.eps) if gap is not None and gap > 0.0 else None,
                **timing, "time_to_eps": tally["time_to_eps"],
                "oracle_calls_total": self.oracle_calls,
                **tally,  # time_to_eps keeps its place; the other four follow in order
                "delay_model": delay_model}


@dataclass
class SyncCopy(LadderCopy):
    """A ladder copy plus its undelivered messages, oldest first."""

    pending: list[tuple[float, Message]] = field(default_factory=list)


class _SyncEngine(Ladder):
    copy_class = SyncCopy

    def deliver(self, copy: SyncCopy, message: Message, now: float) -> None:
        self.copies[copy.index - 1].pending.append((now + 1.0, message))

    def serve_copy(self, copy: SyncCopy, now: float) -> None:
        """Task check, chores, and one iteration for ``copy`` at time ``now``."""

        if copy.index == self.N:
            self.update_top(copy, now)
        else:
            inbox = None  # the newest readable message wins
            while copy.pending and copy.pending[0][0] <= now:
                inbox = copy.pending.pop(0)[1]
            self.restart_at_best(copy, inbox, True, now)
        self.iterate(copy.method)
        self.trace.record(now, copy.index, "iterate", copy.method.best_value)


def run_sync(
    problem: ProblemInstance,
    method_kind,
    eps: float,
    *,
    x0,
    N: int | None = None,
    mode: str = "lockstep",
    budget: float = DEFAULT_BUDGET,
) -> tuple[SchemeTrace, dict]:
    """Run the parallel restart scheme in lockstep or sequential mode.

    ``budget`` caps periods in lockstep mode and single-copy slots in
    sequential mode.  The run halts as soon as the best value any copy has
    computed reaches f_star + eps (when the problem's metadata provides
    f_star) or when the budget runs out, whichever comes first; the summary
    reports ``time_to_eps`` in the same time unit the events use.
    """

    if mode not in ("lockstep", "sequential"):
        raise ParameterError(f"unknown mode {mode!r}")
    engine = _SyncEngine(problem, method_kind, eps, N, budget)
    engine.spin_up(x0)
    ticks = 0
    if engine.time_to_eps is None:
        # One tick is a period (every copy, top down) in lockstep mode and a
        # single copy's slot in sequential mode.
        ladder = [engine.copies[n] for n in range(engine.N, -2, -1)]
        width = len(ladder) if mode == "lockstep" else 1
        while ticks < budget:
            ticks += 1
            now = float(ticks)
            start = (ticks - 1) * width % len(ladder)
            served = ladder[start:start + width]
            for copy in served:
                engine.serve_copy(copy, now)
            if engine.solved(now, min(copy.method.best_value for copy in served)):
                break
    return engine.trace, engine.summary(f"sync-{mode}", None, periods=ticks)
