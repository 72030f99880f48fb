"""Discrete-event simulator for the asynchronous restart scheme.

Continuous time, one unit per oracle call.  Every copy starts at the shared
point at time zero and iterates freely; a fulfilling point of its own starts
a new epoch instantly, while a message arrival pauses the copy for a bounded
positive time before the candidate is examined.  A newer arrival during a
pause overwrites the candidate and starts a fresh pause; an arrival landing
at the same instant as the copy's own task fulfillment turns the pause into
a comparison, keeping the copy's own point unless the message's value is
strictly smaller.  The top copy never pauses and never restarts.

Interrupted oracle calls are suspended and resume with their remaining
duration if the epoch survives the pause; they are discarded outright on a
restart, so no unspent oracle work is ever credited.  Simulated work charges
every oracle call when it is issued, including calls whose results end up
discarded.  A copy whose method reaches a zero subgradient goes idle: it is
at a global minimizer, so arrivals are logged but cannot improve it.

Delivery is governed by :class:`DelayModel`: deterministic or uniform
transit within (0, tau_transit], and optionally a shared single-server FIFO
queue where a newer message replaces an older pending one from the same
sender and the effective transit bound scales with the number of copies.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from restartfom.errors import ParameterError
# method_init and method_restart run in the shared Ladder; they stay bound here
# because bench/layers.py wraps the same four method names in both engines.
from restartfom.methods import MethodState, method_init, method_restart, prime, step  # noqa: F401
from restartfom.problems import ProblemInstance
from restartfom.sync_scheme import Ladder, LadderCopy
from restartfom.traces import Message, SchemeTrace, TraceEvent, fulfills

DEFAULT_TIME_BUDGET = 100_000.0

_PRIO_COMPLETE = 0
_PRIO_ARRIVAL = 1
_PRIO_PAUSE_END = 2
_PRIO_EPOCH = 3

_TRANSIT_KINDS = ("deterministic", "uniform", "single-server")
_PAUSE_KINDS = ("deterministic", "uniform")


_ITERATION_COSTS = ("per-call", "per-iteration")


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
    tau_factor: float = 1.0
    seed: int | None = None
    iteration_cost: str = "per-call"

    def __post_init__(self):
        if self.transit_kind not in _TRANSIT_KINDS:
            raise ParameterError(f"unknown transit kind {self.transit_kind!r}")
        if self.pause_kind not in _PAUSE_KINDS:
            raise ParameterError(f"unknown pause kind {self.pause_kind!r}")
        if self.iteration_cost not in _ITERATION_COSTS:
            raise ParameterError(f"unknown iteration cost {self.iteration_cost!r}")
        for label, value in (
            ("tau_transit", self.tau_transit),
            ("tau_pause", self.tau_pause),
            ("service_time", self.service_time),
            ("tau_factor", self.tau_factor),
        ):
            if not (value > 0.0 and math.isfinite(value)):
                raise ParameterError(f"{label} must be positive, got {value}")

    def effective_tau_transit(self, N: int) -> float:
        """Transit bound honored by deliveries when N + 2 copies share the wire."""

        if self.transit_kind == "single-server":
            return self.tau_factor * (N + 2) * self.service_time
        return self.tau_transit

    def sample_transit(self, rng) -> float:
        if self.transit_kind == "deterministic":
            return self.tau_transit
        # tau - U[0, tau) lands in (0, tau].
        return self.tau_transit - rng.uniform(0.0, self.tau_transit)

    def sample_pause(self, rng) -> float:
        if self.pause_kind == "deterministic":
            return self.tau_pause
        return self.tau_pause - rng.uniform(0.0, self.tau_pause)

    def describe(self, N: int | None = None) -> dict:
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
            record["tau_factor"] = self.tau_factor
        if N is not None:
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
    """A ladder copy plus its place in the event loop."""

    phase: str = "iterating"  # iterating | paused | idle
    inflight_state: MethodState | None = None
    inflight_remaining: float = 0.0
    inflight_completes_at: float = 0.0
    call_version: int = 0
    pause_version: int = 0
    epoch_version: int = 0
    pause_candidate: Message | None = None
    pending_epoch: bool = False
    coincident: bool = False


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
        self.heap: list = []
        self.last_arrival: dict[int, float] = {}
        self.seq = 0
        self.sim_time = 0.0

    def push(self, t: float, prio: int, kind: str, **payload) -> None:
        heapq.heappush(self.heap, (t, prio, self.seq, kind, payload))
        self.seq += 1

    def begin_iteration(self, copy: AsyncCopy, now: float) -> None:
        if copy.method.converged:
            copy.phase = "idle"
            copy.inflight_state = None
            return
        nxt = copy.method.clone()
        calls = prime(nxt, self.problem)
        outcome = step(nxt, self.problem)
        calls += outcome.oracle_calls
        self.oracle_calls += calls
        if self.delay_model.iteration_cost == "per-iteration":
            duration = 1.0
        else:
            duration = float(calls)
        copy.phase = "iterating"
        copy.inflight_state = nxt
        copy.inflight_remaining = duration
        copy.inflight_completes_at = now + duration
        copy.call_version += 1
        self.push(copy.inflight_completes_at, _PRIO_COMPLETE, "complete",
                  copy_index=copy.index, version=copy.call_version)

    def deliver(self, copy: AsyncCopy, message: Message, now: float) -> None:
        if self.server is not None:
            started = self.server.submit(message, now)
        else:
            # Per-sender FIFO channel: a later send never lands before an
            # earlier one, so pause candidates only ever improve.
            arrive_at = now + self.delay_model.sample_transit(self.rng)
            prev = self.last_arrival.get(copy.index, -math.inf)
            if arrive_at < prev:
                arrive_at = prev
            self.last_arrival[copy.index] = arrive_at
            started = [(arrive_at, message)]
        for arrive_at, msg in started:
            self.push(arrive_at, _PRIO_ARRIVAL, "arrival",
                      copy_index=msg.sender - 1, message=msg)

    def restart(self, copy: AsyncCopy, point, value: float, known_grad,
                source: str, now: float) -> None:
        """Begin a new epoch at ``point``: log it, restart, resume iterating."""

        self.trace.append(TraceEvent(now, copy.index, "epoch-begin", value))
        copy.inflight_state = None
        copy.pause_candidate = None
        copy.pending_epoch = False
        copy.coincident = False
        super().restart(copy, point, value, known_grad, source, now)
        self.begin_iteration(copy, now)

    # -- handlers --------------------------------------------------------------

    def on_complete(self, now: float, copy_index: int, version: int) -> None:
        copy = self.copies[copy_index]
        if version != copy.call_version or copy.phase != "iterating":
            return
        copy.method = copy.inflight_state
        copy.inflight_state = None
        self.trace.append(TraceEvent(
            now, copy.index, "iterate", copy.method.best_value,
        ))
        if self.solved(now):
            return
        if copy.index == self.N:
            self.update_top(copy, now)
            self.begin_iteration(copy, now)
        elif fulfills(copy.task, copy.method.best_value):
            copy.pending_epoch = True
            copy.epoch_version += 1
            self.push(now, _PRIO_EPOCH, "epoch-begin",
                      copy_index=copy.index, version=copy.epoch_version)
        else:
            self.begin_iteration(copy, now)

    def on_arrival(self, now: float, copy_index: int, message: Message) -> None:
        self.trace.append(TraceEvent(
            now, copy_index, "arrival", message.value, sender=message.sender,
        ))
        if self.server is not None:
            for arrive_at, msg in self.server.service_done(now):
                self.push(arrive_at, _PRIO_ARRIVAL, "arrival",
                          copy_index=msg.sender - 1, message=msg)
        copy = self.copies[copy_index]
        if copy.phase == "idle" or copy_index == self.N:
            return
        if copy.pending_epoch:
            # The copy fulfilled its own task this very instant: the pause
            # becomes a comparison between its point and the message's.
            copy.pending_epoch = False
            copy.epoch_version += 1
            copy.coincident = True
        elif copy.phase == "iterating" and copy.inflight_state is not None:
            copy.inflight_remaining = copy.inflight_completes_at - now
            copy.call_version += 1  # suspend: the scheduled completion is stale
        copy.phase = "paused"
        copy.pause_candidate = message
        copy.pause_version += 1
        duration = self.delay_model.sample_pause(self.rng)
        self.trace.append(TraceEvent(
            now, copy_index, "pause-begin", message.value, sender=message.sender,
        ))
        self.push(now + duration, _PRIO_PAUSE_END, "pause-end",
                  copy_index=copy_index, version=copy.pause_version)

    def on_pause_end(self, now: float, copy_index: int, version: int) -> None:
        copy = self.copies[copy_index]
        if version != copy.pause_version or copy.phase != "paused":
            return
        candidate = copy.pause_candidate
        copy.pause_candidate = None
        self.trace.append(TraceEvent(
            now, copy_index, "pause-end", candidate.value, sender=candidate.sender,
        ))
        if copy.coincident:
            copy.coincident = False
            own_value = copy.method.best_value
            if candidate.value < own_value:
                self.restart(copy, candidate.point, candidate.value, None, "inbox", now)
            else:
                self.restart(copy, copy.method.best_point, own_value,
                             copy.method.best_grad, "own", now)
        elif fulfills(copy.task, candidate.value):
            # The suspended call is discarded outright.
            self.restart(copy, candidate.point, candidate.value, None, "inbox", now)
        else:
            # The epoch survives: resume the suspended call with what remains.
            copy.phase = "iterating"
            if copy.inflight_state is not None:
                copy.call_version += 1
                copy.inflight_completes_at = now + copy.inflight_remaining
                self.push(copy.inflight_completes_at, _PRIO_COMPLETE, "complete",
                          copy_index=copy_index, version=copy.call_version)
            else:
                self.begin_iteration(copy, now)

    def on_epoch_begin(self, now: float, copy_index: int, version: int) -> None:
        copy = self.copies[copy_index]
        if not copy.pending_epoch or version != copy.epoch_version:
            return
        self.restart(copy, copy.method.best_point, copy.method.best_value,
                     copy.method.best_grad, "own", now)

    def run(self) -> None:
        handlers = {
            "complete": self.on_complete,
            "arrival": self.on_arrival,
            "pause-end": self.on_pause_end,
            "epoch-begin": self.on_epoch_begin,
        }
        for n in range(self.N, -2, -1):
            self.begin_iteration(self.copies[n], 0.0)
        while self.heap and self.time_to_eps is None:
            t, _prio, _seq, kind, payload = self.heap[0]
            if t > self.budget:
                return
            heapq.heappop(self.heap)
            self.sim_time = max(self.sim_time, t)
            handlers[kind](t, **payload)


def run_async(
    problem: ProblemInstance,
    method_kind,
    eps: float,
    *,
    x0,
    N: int | None = None,
    delay_model: DelayModel | None = None,
    budget: float = DEFAULT_TIME_BUDGET,
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
