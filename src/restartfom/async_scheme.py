"""Discrete-event simulator for the asynchronous restart scheme.

Continuous time, one unit per oracle call.  Every copy starts at the shared
point at time zero and iterates freely; a fulfilling point of its own starts
a new epoch instantly, while a message arrival pauses the copy for a bounded
positive time before the candidate is examined.  A newer arrival during a
pause overwrites the candidate and starts a fresh pause.  When the pause
ends, the ladder's restart rule runs with a tie keeping the copy's own point;
that point can fulfill the task only when the arrival landed at the instant
the copy fulfilled it, and a copy that does not restart resumes.  The top
copy never pauses and never restarts.  The trace logs a pause as the
``arrival`` that starts it and the ``pause-end`` that closes it.

Interrupted oracle calls are suspended and resume with their remaining
duration if the epoch survives the pause; they are discarded outright on a
restart, so no unspent oracle work is ever credited.  Simulated work charges
every oracle call when it is issued, including calls whose results end up
discarded.  A copy whose method reaches a zero subgradient goes idle: it is
at a global minimizer, so arrivals are logged but cannot improve it.
A copy's state is ``idle``, ``pause_candidate`` (paused while set) and its
call in flight.  It has at most one live completion, pause end or epoch
start, stamped with its ``version``; ``schedule`` is the one writer of
``version``, so each new event voids the one before, which ``run`` drops.

Delivery is governed by :class:`DelayModel`: deterministic or uniform
transit within (0, tau_transit], and optionally a shared single-server FIFO
queue where a newer message replaces an older pending one from the same
sender and the transit bound is (N + 2) * service_time.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from restartfom.errors import ParameterError
# method_init, method_restart, prime and step run in the shared Ladder; they
# stay bound here because bench/layers.py wraps the same four names in both engines.
from restartfom.methods import MethodState, method_init, method_restart, prime, step  # noqa: F401
from restartfom.problems import ProblemInstance
from restartfom.sync_scheme import DEFAULT_BUDGET, Ladder, LadderCopy, Message
from restartfom.traces import SchemeTrace

_PRIO_COMPLETE = 0
_PRIO_ARRIVAL = 1
_PRIO_PAUSE_END = 2
_PRIO_EPOCH = 3

_KINDS = {"transit_kind": ("deterministic", "uniform", "single-server"),
          "pause_kind": ("deterministic", "uniform"),
          "iteration_cost": ("per-call", "per-iteration")}


def _sample(kind: str, tau: float, rng) -> float:
    if kind == "deterministic":
        return tau
    # tau - U[0, tau) lands in (0, tau].
    return tau - rng.uniform(0.0, tau)


@dataclass(frozen=True)
class DelayModel:
    """Transit and pause distributions plus the seed that fixes them.

    ``iteration_cost`` sets how simulated time accrues: "per-call" charges
    one unit per oracle call, including the priming call after a restart at
    a received point; "per-iteration" charges one unit per method iteration,
    reproducing the lock-step geometry in which a period absorbs the restart
    chores — the configuration under which the asynchronous scheme matches
    the synchronous one exactly.
    """

    transit_kind: str = "deterministic"
    tau_transit: float = 1.0
    pause_kind: str = "deterministic"
    tau_pause: float = 1.0
    service_time: float = 1.0
    seed: int | None = None
    iteration_cost: str = "per-call"

    def __post_init__(self):
        for field, kinds in _KINDS.items():
            kind = getattr(self, field)
            if kind not in kinds:
                raise ParameterError(f"unknown {field.replace('_', ' ')} {kind!r}")
        for field in ("tau_transit", "tau_pause", "service_time"):
            value = getattr(self, field)
            if not (value > 0.0 and math.isfinite(value)):
                raise ParameterError(f"{field} must be positive, got {value}")
        if self.seed is not None and self.seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {self.seed}")

    def effective_tau_transit(self, N: int) -> float:
        """Transit bound honored by deliveries when N + 2 copies share the wire."""

        if self.transit_kind == "single-server":
            return (N + 2) * self.service_time
        return self.tau_transit

    def sample_transit(self, rng) -> float:
        return _sample(self.transit_kind, self.tau_transit, rng)

    def sample_pause(self, rng) -> float:
        return _sample(self.pause_kind, self.tau_pause, rng)

    def describe(self, N: int) -> dict:
        record = {
            "transit_kind": self.transit_kind,
            "tau_transit": self.tau_transit,
            "pause_kind": self.pause_kind,
            "tau_pause": self.tau_pause,
            "seed": self.seed,
            "iteration_cost": self.iteration_cost,
        }
        if self.transit_kind == "single-server":
            record["service_time"] = self.service_time
        record["effective_tau_transit"] = self.effective_tau_transit(N)
        return record


class ServerQueue:
    """Shared delivery server: FIFO service, newest message per sender wins."""

    def __init__(self, service_time: float):
        self.service_time = service_time
        self.pending: list[Message] = []
        self.in_service: Message | None = None

    def submit(self, message: Message, now: float) -> list[tuple[float, Message]]:
        """Queue a message; returns any service completion to schedule."""

        self.pending = [m for m in self.pending if m.sender != message.sender]
        self.pending.append(message)
        if self.in_service is None:
            return self._start_next(now)
        return []

    def service_done(self, now: float) -> list[tuple[float, Message]]:
        """Called when the in-service delivery lands; starts the next one."""

        self.in_service = None
        return self._start_next(now)

    def _start_next(self, now: float) -> list[tuple[float, Message]]:
        if not self.pending:
            return []
        self.in_service = self.pending.pop(0)
        return [(now + self.service_time, self.in_service)]


@dataclass
class AsyncCopy(LadderCopy):
    """A ladder copy plus its place in the event loop: idle at a minimizer,
    paused while ``pause_candidate`` is set, and one call in flight."""

    idle: bool = False
    inflight_state: MethodState | None = None
    inflight_completes_at: float = 0.0
    inflight_remaining: float = 0.0  # of the call a pause suspended
    # Stamps the copy's one live event; only _AsyncEngine.schedule writes it.
    version: int = 0
    pause_candidate: Message | None = None
    last_arrival: float = -math.inf  # when this copy's latest send lands


class _AsyncEngine(Ladder):
    copy_class = AsyncCopy

    def __init__(self, problem: ProblemInstance, method_kind, eps: float,
                 N: int | None, budget: float, delay_model: DelayModel):
        super().__init__(problem, method_kind, eps, N, budget)
        self.delay_model = delay_model
        self.rng = np.random.default_rng(delay_model.seed)
        self.server = (
            ServerQueue(delay_model.service_time)
            if delay_model.transit_kind == "single-server" else None
        )
        # (t, prio, seq, handler, copy, arg); run() calls handler(self, t, copy, arg).
        # Handlers are plain functions: no entry holds the engine or a bound method.
        self.heap: list = []
        self.seq = 0
        self.sim_time = 0.0

    def push(self, t: float, prio: int, handler, copy: AsyncCopy, arg) -> None:
        heapq.heappush(self.heap, (t, prio, self.seq, handler, copy, arg))
        self.seq += 1

    def schedule(self, copy: AsyncCopy, t: float, prio: int, handler) -> None:
        """Make ``handler`` at ``t`` the copy's one live event."""
        copy.version += 1
        self.push(t, prio, handler, copy, copy.version)

    def resume(self, copy: AsyncCopy, completes_at: float) -> None:
        copy.inflight_completes_at = completes_at
        self.schedule(copy, completes_at, _PRIO_COMPLETE, _AsyncEngine.on_complete)

    def schedule_arrivals(self, started: list[tuple[float, Message]]) -> None:
        for arrive_at, msg in started:
            self.push(arrive_at, _PRIO_ARRIVAL, _AsyncEngine.on_arrival,
                      self.copies[msg.sender - 1], msg)

    def begin_iteration(self, copy: AsyncCopy, now: float) -> None:
        if copy.method.converged:
            copy.idle = True
            copy.inflight_state = None
            return
        nxt = copy.method.clone()
        calls = self.iterate(nxt)
        copy.inflight_state = nxt
        self.resume(copy, now + (1.0 if self.delay_model.iteration_cost == "per-iteration"
                                 else float(calls)))

    def deliver(self, copy: AsyncCopy, message: Message, now: float) -> None:
        if self.server is not None:
            started = self.server.submit(message, now)
        else:
            # Per-sender FIFO channel: a later send never lands before an
            # earlier one, so pause candidates only ever improve.
            arrive_at = max(now + self.delay_model.sample_transit(self.rng), copy.last_arrival)
            copy.last_arrival = arrive_at
            started = [(arrive_at, message)]
        self.schedule_arrivals(started)

    def restart(self, copy: AsyncCopy, point, value: float, known_grad,
                source: str, now: float) -> None:
        """Begin a new epoch at ``point``: restart, then resume iterating."""

        super().restart(copy, point, value, known_grad, source, now)
        self.begin_iteration(copy, now)

    # -- handlers: run() calls each only for its copy's live event -------------

    def on_complete(self, now: float, copy: AsyncCopy, version: int) -> None:
        copy.method = copy.inflight_state
        copy.inflight_state = None
        self.trace.record(now, copy.index, "iterate", copy.method.best_value)
        if self.solved(now, copy.method.best_value):
            return
        if copy.index == self.N:
            self.update_top(copy, now)
            self.begin_iteration(copy, now)
        elif copy.fulfills(copy.method.best_value):
            self.schedule(copy, now, _PRIO_EPOCH, _AsyncEngine.on_epoch_begin)
        else:
            self.begin_iteration(copy, now)

    def on_arrival(self, now: float, copy: AsyncCopy, message: Message) -> None:
        self.trace.record(now, copy.index, "arrival", message.value, sender=message.sender)
        if self.server is not None:
            self.schedule_arrivals(self.server.service_done(now))
        if copy.idle:
            return
        if copy.pause_candidate is None:
            # Suspend: the pause-end scheduled below voids the completion (or
            # the pending epoch start, which the pause end then performs).
            copy.inflight_remaining = copy.inflight_completes_at - now
        # The arrival starts the pause, or restarts it with the newer candidate.
        copy.pause_candidate = message
        self.schedule(copy, now + self.delay_model.sample_pause(self.rng), _PRIO_PAUSE_END,
                      _AsyncEngine.on_pause_end)

    def on_pause_end(self, now: float, copy: AsyncCopy, version: int) -> None:
        candidate = copy.pause_candidate
        copy.pause_candidate = None
        self.trace.record(now, copy.index, "pause-end", candidate.value, sender=candidate.sender)
        # A restart discards the suspended call outright.
        if not self.restart_at_best(copy, candidate, False, now):
            # The epoch survives: resume the suspended call with what remains.
            self.resume(copy, now + copy.inflight_remaining)

    def on_epoch_begin(self, now: float, copy: AsyncCopy, version: int) -> None:
        self.restart_at_best(copy, None, False, now)  # on_complete saw its point fulfill

    def run(self) -> None:
        for n in range(self.N, -2, -1):
            self.begin_iteration(self.copies[n], 0.0)
        while self.heap and self.time_to_eps is None:
            t, prio, _seq, handler, copy, arg = self.heap[0]
            if t > self.budget:
                break
            heapq.heappop(self.heap)
            self.sim_time = max(self.sim_time, t)
            # An arrival always lands; another entry only while still live.
            if prio == _PRIO_ARRIVAL or arg == copy.version:
                handler(self, t, copy, arg)
        self.heap.clear()  # a finished run leaves no scheduled events behind


def run_async(
    problem: ProblemInstance,
    method_kind,
    eps: float,
    *,
    x0,
    N: int | None = None,
    delay_model: DelayModel | None = None,
    budget: float = DEFAULT_BUDGET,
) -> tuple[SchemeTrace, dict]:
    """Simulate the asynchronous scheme until eps is reached or time runs out.

    ``budget`` caps simulated time.  The summary's ``time_to_eps`` is the
    simulated instant at which some copy first holds a point with objective
    value within eps of f_star (when metadata provides f_star).
    """

    engine = _AsyncEngine(problem, method_kind, eps, N, budget,
                          delay_model if delay_model is not None else DelayModel())
    engine.spin_up(x0)
    if engine.time_to_eps is None:
        engine.run()
    return engine.trace, engine.summary(
        "async", engine.delay_model.describe(engine.N),
        periods=None, sim_time=engine.sim_time,
    )
