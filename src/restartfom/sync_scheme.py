"""Lock-step and sequential engines for the parallel restart scheme.

Copies FOM_n for n = -1..N all start from the same point; copy n works on
the task of improving its reference value by 2^n * eps and hands every
fulfilling point down to copy n - 1.  The lock-step engine advances all
copies one iteration per unit period, with messages sent in period p
becoming readable in period p + 1; the sequential mode interleaves the same
copies on a single worker, sweeping from copy N down to copy -1 so that a
message becomes readable later in the same sweep.

The top copy never restarts: when its best value fulfills the task it
replaces the task, sends the point downward, and keeps iterating.  Every
other copy restarts at the better of its own best point and its inbox
(ties prefer the inbox), forwarding the restart point to the next copy
down.  Restart chores, priming evaluations, and the first post-restart
iteration all land in the period of the restart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from restartfom.bounds import default_N, n_bar
from restartfom.errors import ParameterError
from restartfom.methods import MethodSpec, MethodState, method_init, method_restart, prime, step
from restartfom.problems import ProblemInstance
from restartfom.traces import Message, SchemeTrace, Task, TraceEvent, fulfills, point_tuple

DEFAULT_PERIOD_BUDGET = 100_000


@dataclass
class SyncCopy:
    """One copy of the method plus its task, inbox, and restart tally."""

    index: int
    task: Task
    method: MethodState
    inbox: Message | None = None
    pending: list[tuple[float, Message]] = field(default_factory=list)
    restart_count: int = 0

    def deliver_due(self, now: float) -> None:
        """Move messages whose readable time has come into the inbox."""

        still_pending = []
        for readable_at, message in self.pending:
            if readable_at <= now:
                self.inbox = message
            else:
                still_pending.append((readable_at, message))
        self.pending = still_pending


def coerce_method_spec(method_kind) -> MethodSpec:
    if isinstance(method_kind, MethodSpec):
        return method_kind
    return MethodSpec(str(method_kind))


class _SyncEngine:
    """Shared bookkeeping for the lockstep and sequential modes."""

    def __init__(self, problem: ProblemInstance, spec: MethodSpec, eps: float, N: int):
        self.problem = problem
        self.spec = spec
        self.eps = eps
        self.N = N
        self.trace = SchemeTrace()
        self.copies: dict[int, SyncCopy] = {}
        self.oracle_calls = 0
        self.messages_sent = 0
        self.f_star = problem.metadata.f_star if problem.metadata is not None else None

    def spin_up(self, x0, n: int) -> SyncCopy:
        decrement = (2.0 ** n) * self.eps
        state = method_init(self.spec, self.problem, x0, decrement)
        self.oracle_calls += 1
        copy = SyncCopy(index=n, task=Task(state.best_value, decrement), method=state)
        self.copies[n] = copy
        self.trace.append(TraceEvent(0.0, n, "init", state.best_value))
        return copy

    def global_best(self) -> float:
        return min(copy.method.best_value for copy in self.copies.values())

    def send_down(self, copy: SyncCopy, point, value: float, now: float,
                  readable_at: float) -> None:
        message = Message(point_tuple(point), value, copy.index, now)
        self.copies[copy.index - 1].pending.append((readable_at, message))
        self.messages_sent += 1
        self.trace.append(TraceEvent(
            now, copy.index, "send", value,
            point=message.point, receiver=copy.index - 1,
        ))

    def iterate(self, copy: SyncCopy, now: float) -> None:
        if copy.method.needs_prime:
            self.oracle_calls += prime(copy.method, self.problem)
        outcome = step(copy.method, self.problem)
        self.oracle_calls += outcome.oracle_calls
        self.trace.append(TraceEvent(now, copy.index, "iterate", copy.method.best_value))

    def serve_copy(self, copy: SyncCopy, now: float, readable_at: float) -> None:
        """Task check, chores, and one iteration for ``copy`` at time ``now``."""

        copy.deliver_due(now)
        if copy.index == self.N:
            if fulfills(copy.task, copy.method.best_value):
                value = copy.method.best_value
                copy.task = Task(value, copy.task.decrement)
                self.trace.append(TraceEvent(now, copy.index, "task-update", value))
                if copy.index > -1:
                    self.send_down(copy, copy.method.best_point, value, now, readable_at)
            self.iterate(copy, now)
            return

        own_value = copy.method.best_value
        inbox = copy.inbox
        copy.inbox = None
        use_inbox = inbox is not None and inbox.value <= own_value
        candidate_value = inbox.value if use_inbox else own_value
        if fulfills(copy.task, candidate_value):
            if use_inbox:
                point, known_grad, source = inbox.point, None, "inbox"
            else:
                point, known_grad, source = copy.method.best_point, copy.method.best_grad, "own"
            copy.task = Task(candidate_value, copy.task.decrement)
            copy.method = method_restart(
                copy.method, self.problem, point, candidate_value, known_grad
            )
            copy.restart_count += 1
            point = point_tuple(point)
            self.trace.append(TraceEvent(
                now, copy.index, "restart", candidate_value,
                point=point, source=source,
            ))
            if copy.index > -1:
                self.send_down(copy, point, candidate_value, now, readable_at)
        self.iterate(copy, now)

    def summary(self, *, mode: str, periods: int, time_to_eps: float | None,
                f_x0: float) -> dict:
        gap = None if self.f_star is None else f_x0 - self.f_star
        return {
            "scheme": f"sync-{mode}",
            "method": self.spec.kind,
            "eps": self.eps,
            "N": self.N,
            "n_bar": n_bar(gap, self.eps) if gap is not None and gap > 0.0 else None,
            "periods": periods,
            "time_to_eps": time_to_eps,
            "oracle_calls_total": self.oracle_calls,
            "restarts_per_copy": {
                str(n): self.copies[n].restart_count for n in sorted(self.copies)
            },
            "messages_total": self.messages_sent,
            "complete": time_to_eps is not None,
            "f_x0": f_x0,
            "delay_model": None,
        }


def run_sync(
    problem: ProblemInstance,
    method_kind,
    eps: float,
    *,
    x0,
    N: int | None = None,
    mode: str = "lockstep",
    budget: int = DEFAULT_PERIOD_BUDGET,
) -> tuple[SchemeTrace, dict]:
    """Run the parallel restart scheme in lockstep or sequential mode.

    ``budget`` caps periods in lockstep mode and single-copy slots in
    sequential mode.  The run halts as soon as the best value any copy has
    computed reaches f_star + eps (when the problem's metadata provides
    f_star) or when the budget runs out, whichever comes first; the summary
    reports ``time_to_eps`` in the same time unit the events use.
    """

    if not (eps > 0.0):
        raise ParameterError(f"eps must be positive, got {eps}")
    if mode not in ("lockstep", "sequential"):
        raise ParameterError(f"unknown mode {mode!r}")
    if budget < 0:
        raise ParameterError(f"budget must be nonnegative, got {budget}")
    if N is None:
        N = default_N(eps)
    if N < -1:
        raise ParameterError(f"N must be at least -1, got {N}")

    spec = coerce_method_spec(method_kind)
    engine = _SyncEngine(problem, spec, eps, N)

    top = engine.spin_up(x0, N)
    f_x0 = top.method.best_value
    if engine.f_star is not None and f_x0 - engine.f_star <= eps:
        return engine.trace, engine.summary(
            mode=mode, periods=0, time_to_eps=0.0, f_x0=f_x0
        )
    for n in range(N - 1, -2, -1):
        engine.spin_up(x0, n)

    time_to_eps = None
    periods = 0
    if mode == "lockstep":
        for period in range(1, budget + 1):
            now = float(period)
            for n in range(N, -2, -1):
                engine.serve_copy(engine.copies[n], now, readable_at=now + 1.0)
            periods = period
            if engine.f_star is not None and \
                    engine.global_best() - engine.f_star <= eps:
                time_to_eps = now
                break
    else:
        slot = 0
        done = False
        while not done:
            for n in range(N, -2, -1):
                if slot >= budget:
                    done = True
                    break
                slot += 1
                now = float(slot)
                engine.serve_copy(engine.copies[n], now, readable_at=now + 1.0)
                periods = slot
                if engine.f_star is not None and \
                        engine.global_best() - engine.f_star <= eps:
                    time_to_eps = now
                    done = True
                    break

    return engine.trace, engine.summary(
        mode=mode, periods=periods, time_to_eps=time_to_eps, f_x0=f_x0
    )
