"""The restart ladder shared by every engine, and its lock-step scheduler.

Copies FOM_n for n = -1..N all start from the same point; copy n works on
the task of improving its reference value by 2^n * eps and hands every
fulfilling point down to copy n - 1.  :class:`Ladder` owns that rule and the
bookkeeping around it; an engine only decides when copies iterate and when
messages become readable.

The top copy never restarts: when its best value fulfills the task it
replaces the task, sends the point downward, and keeps iterating.  Every
other copy restarts at a fulfilling point and forwards it to the next copy
down.  The point is the better of its own best point and a candidate
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

from restartfom.bounds import default_N, n_bar
from restartfom.errors import ParameterError
from restartfom.methods import MethodSpec, MethodState, method_init, method_restart, prime, step
from restartfom.problems import ProblemInstance
from restartfom.traces import Message, SchemeTrace, Task, TraceEvent, fulfills, point_tuple

DEFAULT_BUDGET = 100_000.0  # periods, slots or simulated time units


@dataclass
class LadderCopy:
    """One copy of the method, its task, and its restart tally."""

    index: int
    task: Task
    method: MethodState
    restart_count: int = 0


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
        self.messages_sent = 0
        self.f_star = problem.metadata.f_star if problem.metadata is not None else None
        self.f_x0: float | None = None
        self.time_to_eps: float | None = None

    def spin_up(self, x0) -> None:
        """Start every copy at ``x0``, top first; stop after the top copy
        (with ``time_to_eps`` 0) when ``x0`` already solves the problem."""

        for n in range(self.N, -2, -1):
            decrement = (2.0 ** n) * self.eps
            state = method_init(self.spec, self.problem, x0, decrement)
            self.oracle_calls += 1
            self.copies[n] = self.copy_class(n, Task(state.best_value, decrement), state)
            self.trace.append(TraceEvent(0.0, n, "init", state.best_value))
            if n == self.N:
                self.f_x0 = state.best_value
                if self.f_star is not None and self.f_x0 - self.f_star <= self.eps:
                    self.time_to_eps = 0.0
                    return

    def solved(self, now: float, copies) -> bool:
        """Whether one of ``copies`` holds an eps-solution; records ``now`` if so.
        Engines pass the copies that iterated since the last check: a restart
        installs only a value some copy already held, so no other can have dropped."""

        if self.f_star is None:
            return False
        if min(copy.method.best_value for copy in copies) - self.f_star <= self.eps:
            self.time_to_eps = now
            return True
        return False

    def send_down(self, copy: LadderCopy, point, value: float, now: float) -> None:
        message = Message(point_tuple(point), value, copy.index)
        self.messages_sent += 1
        self.trace.append(TraceEvent(
            now, copy.index, "send", value,
            point=message.point, receiver=copy.index - 1,
        ))
        self.deliver(copy, message, now)

    def update_top(self, copy: LadderCopy, now: float) -> None:
        """The top copy's rule: replace a fulfilled task and send, no restart."""

        if fulfills(copy.task, copy.method.best_value):
            value = copy.method.best_value
            copy.task = Task(value, copy.task.decrement)
            self.trace.append(TraceEvent(now, copy.index, "task-update", value))
            if copy.index > -1:
                self.send_down(copy, copy.method.best_point, value, now)

    def restart(self, copy: LadderCopy, point, value: float, known_grad,
                source: str, now: float) -> None:
        """Restart ``copy`` at a fulfilling point and send the point down."""

        copy.task = Task(value, copy.task.decrement)
        copy.method = method_restart(copy.method, self.problem, point, value, known_grad)
        copy.restart_count += 1
        point = point_tuple(point)
        self.trace.append(TraceEvent(
            now, copy.index, "restart", value, point=point, source=source,
        ))
        if copy.index > -1:
            self.send_down(copy, point, value, now)

    def restart_at_best(self, copy: LadderCopy, candidate: Message | None,
                        inbox_wins_tie: bool, now: float) -> bool:
        """The restart rule: restart ``copy`` at the better of ``candidate``
        and its own best point when that point fulfills the task.  The engine
        says which wins a tie; returns whether the copy restarted."""

        own = copy.method
        if candidate is not None and (candidate.value <= own.best_value if inbox_wins_tie
                                      else candidate.value < own.best_value):
            if fulfills(copy.task, candidate.value):
                self.restart(copy, candidate.point, candidate.value, None, "inbox", now)
                return True
        elif fulfills(copy.task, own.best_value):
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

        gap = None if self.f_star is None else self.f_x0 - self.f_star
        return {
            "scheme": scheme,
            "method": self.spec.kind,
            "eps": self.eps,
            "N": self.N,
            "n_bar": n_bar(gap, self.eps) if gap is not None and gap > 0.0 else None,
            **timing,
            "time_to_eps": self.time_to_eps,
            "oracle_calls_total": self.oracle_calls,
            "restarts_per_copy": {
                str(n): self.copies[n].restart_count for n in sorted(self.copies)
            },
            "messages_total": self.messages_sent,
            "complete": self.time_to_eps is not None,
            "f_x0": self.f_x0,
            "delay_model": delay_model,
        }


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
        self.trace.append(TraceEvent(now, copy.index, "iterate", copy.method.best_value))


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
            if engine.solved(now, served):
                break
    return engine.trace, engine.summary(f"sync-{mode}", None, periods=ticks)
