"""Trace records shared by both scheme engines, plus invariant checkers.

Every engine emits a flat, time-ordered list of :class:`TraceEvent` records.
The JSON-lines export (format 2) writes a header holding the distinct points
as one base64 little-endian float64 table, one object per event naming its
point by ``point_id`` (its table row), and a ``{"summary": {...}}`` record;
format-1 files (points inline, no header) still read.  The checkers in this
module validate the messaging and restart discipline of a finished run from
its trace alone.

Event kinds
-----------
``init``
    The evaluation of the shared start point, stamped t = 0.
``iterate``
    One method iteration committed by a copy; ``value`` is the copy's best
    objective value since its last restart (what the copy knows it has).
``restart``
    A copy restarted; ``value``/``point`` describe the new start and
    ``source`` records whether it came from the copy's own work ("own") or
    its inbox ("inbox").
``task-update``
    The top copy replaced its task without restarting; ``value`` is the new
    reference value.
``send``
    A message left ``copy`` for ``receiver``; ``value``/``point`` describe
    the payload.
``arrival``, ``pause-begin``, ``pause-end``, ``epoch-begin``
    Asynchronous-engine extras; ``sender`` on an arrival names the copy the
    payload came from.
"""

from __future__ import annotations

import binascii
import json
import math
from dataclasses import dataclass

import numpy as np

from restartfom.errors import NonFiniteValueError, ParameterError

_OPTIONAL_FIELDS = ("sender", "receiver", "source")
_ENCODER = json.JSONEncoder(allow_nan=False)


def point_tuple(point) -> tuple[float, ...]:
    """The immutable copy of a point that trace events and messages share."""

    return point if isinstance(point, tuple) else tuple(point.tolist())


def _dumps(record: dict) -> str:
    try:
        return _ENCODER.encode(record)
    except ValueError as exc:  # NaN and infinities are not JSON
        raise NonFiniteValueError(f"trace record {record!r}: {exc}") from exc


@dataclass(frozen=True)
class TraceEvent:
    t: float
    copy: int
    kind: str
    value: float
    point: tuple[float, ...] | None = None
    sender: int | None = None
    receiver: int | None = None
    source: str | None = None

    def to_record(self, point_id: int | None) -> dict:
        record = {"t": self.t, "copy": self.copy, "kind": self.kind, "value": self.value}
        if point_id is not None:
            record["point_id"] = point_id
        for name in _OPTIONAL_FIELDS:
            item = getattr(self, name)
            if item is not None:
                record[name] = item
        return record

    @classmethod
    def from_record(cls, record: dict, points: list[tuple[float, ...]]) -> "TraceEvent":
        point = record.get("point")  # format 1 stores the point inline
        if "point_id" in record:
            point = points[record["point_id"]]
        elif point is not None:
            point = tuple(float(v) for v in point)
        return cls(
            t=float(record["t"]),
            copy=int(record["copy"]),
            kind=str(record["kind"]),
            value=float(record["value"]),
            point=point,
            sender=record.get("sender"),
            receiver=record.get("receiver"),
            source=record.get("source"),
        )


@dataclass(frozen=True)
class Task:
    """A copy's standing goal: beat ``restart_value`` by ``decrement``."""

    restart_value: float
    decrement: float

    def __post_init__(self):
        if not (self.decrement > 0.0 and math.isfinite(self.decrement)):
            raise ParameterError(f"task decrement must be positive, got {self.decrement}")


def fulfills(task: Task, value: float) -> bool:
    """Whether ``value`` accomplishes ``task`` (non-strict threshold)."""

    return value <= task.restart_value - task.decrement


@dataclass(frozen=True)
class Message:
    """A point and its objective value in flight from ``sender`` downward."""

    point: tuple[float, ...]
    value: float
    sender: int
    send_time: float


class SchemeTrace:
    """Time-ordered event log of one scheme run with derived views."""

    def __init__(self, events: list[TraceEvent] | None = None):
        self.events: list[TraceEvent] = list(events) if events else []

    def append(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other) -> bool:
        return isinstance(other, SchemeTrace) and self.events == other.events

    def of_kind(self, kind: str, copy: int | None = None) -> list[TraceEvent]:
        return [
            e for e in self.events
            if e.kind == kind and (copy is None or e.copy == copy)
        ]

    def copies(self) -> list[int]:
        return sorted({e.copy for e in self.events})

    def initial_value(self) -> float:
        inits = self.of_kind("init")
        if not inits:
            raise ParameterError("trace has no init events")
        return inits[0].value

    def restart_points(self, copy: int) -> list[tuple[float, ...]]:
        return [e.point for e in self.of_kind("restart", copy)]

    def first_time_to(self, gap: float, f_star: float) -> float | None:
        """Earliest time a computed point had objective ≤ f_star + gap."""

        target = f_star + gap
        for event in self.events:
            if event.kind in ("init", "iterate") and event.value <= target:
                return event.t
        return None

    def write_jsonl(self, path, summary: dict | None = None) -> None:
        """Write the format-2 file: point table header, events, summary."""

        rows: dict[tuple[float, ...], int] = {}
        ids = iter([rows.setdefault(e.point, len(rows))
                    for e in self.events if e.point is not None])
        table = np.array(list(rows), dtype="<f8")
        b64 = binascii.b2a_base64(table.tobytes(), newline=False).decode()
        header = {"format": 2, "points": {"dtype": "<f8", "shape": list(table.shape), "b64": b64}}
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_dumps(header) + "\n")
            for event in self.events:
                point_id = None if event.point is None else next(ids)
                handle.write(_dumps(event.to_record(point_id)) + "\n")
            if summary is not None:
                handle.write(_dumps({"summary": summary}) + "\n")

    @classmethod
    def read_jsonl(cls, path) -> tuple["SchemeTrace", dict | None]:
        trace = cls()
        summary = None
        points: list[tuple[float, ...]] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                if line.isspace():
                    continue
                record = json.loads(line)
                if "summary" in record:
                    summary = record["summary"]
                elif "points" in record:
                    table = record["points"]
                    rows = np.frombuffer(binascii.a2b_base64(table["b64"]), dtype=table["dtype"])
                    points = list(map(tuple, rows.reshape(table["shape"]).tolist()))
                else:
                    trace.append(TraceEvent.from_record(record, points))
        return trace, summary


# ---------------------------------------------------------------------------
# Invariant checkers: each returns a list of violation descriptions.
# ---------------------------------------------------------------------------


def _decrement(copy: int, eps: float) -> float:
    return (2.0 ** copy) * eps


def check_restart_decrements(trace: SchemeTrace, eps: float) -> list[str]:
    """Restart (and top-copy update) values drop by at least the decrement."""

    problems = []
    f_x0 = trace.initial_value()
    for copy in trace.copies():
        dec = _decrement(copy, eps)
        for kind in ("restart", "task-update"):
            previous = f_x0
            for event in trace.of_kind(kind, copy):
                if event.value > previous - dec:
                    problems.append(
                        f"copy {copy}: {kind} value {event.value!r} at t={event.t} "
                        f"exceeds {previous!r} - {dec!r}"
                    )
                previous = event.value
    return problems


def check_message_topology(trace: SchemeTrace, N: int) -> list[str]:
    """Messages flow only from copy n to copy n - 1; copy N receives none."""

    problems = []
    for event in trace.of_kind("send"):
        if event.receiver != event.copy - 1:
            problems.append(
                f"send at t={event.t} from copy {event.copy} to {event.receiver}"
            )
        if event.copy <= -1:
            problems.append(f"copy {event.copy} sent a message at t={event.t}")
    for event in trace.of_kind("arrival"):
        if event.sender != event.copy + 1:
            problems.append(
                f"arrival at t={event.t} on copy {event.copy} from {event.sender}"
            )
        if event.copy == N:
            problems.append(f"copy {N} received a message at t={event.t}")
    return problems


def check_top_copy_never_restarts(trace: SchemeTrace, N: int) -> list[str]:
    return [
        f"copy {N} restarted at t={e.t}"
        for e in trace.of_kind("restart", N)
    ]


def check_near_optimal_send_cap(trace: SchemeTrace, f_star: float, eps: float) -> list[str]:
    """After a send with value < f_star + 2 * 2^n eps, at most one more send."""

    problems = []
    for copy in trace.copies():
        sends = trace.of_kind("send", copy)
        threshold = f_star + 2.0 * _decrement(copy, eps)
        for i, event in enumerate(sends):
            if event.value < threshold:
                extra = len(sends) - i - 1
                if extra > 1:
                    problems.append(
                        f"copy {copy}: {extra} sends after near-optimal send "
                        f"(value {event.value!r} < {threshold!r}) at t={event.t}"
                    )
                break
    return problems


def check_send_counts(trace: SchemeTrace, f_star: float, eps: float) -> list[str]:
    """Total sends by copy n stay within ceil(gap / 2^n eps)."""

    problems = []
    gap = trace.initial_value() - f_star
    if gap <= 0.0:
        return problems
    for copy in trace.copies():
        cap = math.ceil(gap / _decrement(copy, eps))
        sent = len(trace.of_kind("send", copy))
        if sent > cap:
            problems.append(f"copy {copy}: {sent} sends exceed cap {cap}")
    return problems


def check_lockstep_iterates(trace: SchemeTrace, periods: int) -> list[str]:
    """Lockstep runs log exactly one iterate per copy per period 1..periods."""

    problems = []
    for copy in trace.copies():
        times = [e.t for e in trace.of_kind("iterate", copy)]
        expected = [float(p) for p in range(1, periods + 1)]
        if times != expected:
            problems.append(
                f"copy {copy}: iterate times {times} differ from periods {expected}"
            )
    return problems


def check_pause_bounds(trace: SchemeTrace, tau_pause: float) -> list[str]:
    """Every realized pause lasts a positive time of at most tau_pause."""

    problems = []
    for copy in trace.copies():
        begun_at = None
        for event in trace.events:
            if event.copy != copy:
                continue
            if event.kind == "pause-begin":
                begun_at = event.t  # overwrites restart the clock
            elif event.kind == "pause-end":
                if begun_at is None:
                    problems.append(f"copy {copy}: pause-end at t={event.t} without begin")
                else:
                    duration = event.t - begun_at
                    if not (0.0 < duration <= tau_pause + 1e-9):
                        problems.append(
                            f"copy {copy}: pause of {duration} at t={event.t} "
                            f"outside (0, {tau_pause}]"
                        )
                    begun_at = None
    return problems


def check_transit_bounds(trace: SchemeTrace, tau_transit: float) -> list[str]:
    """Every delivered message arrives within (0, tau_transit] of its send."""

    problems = []
    send_times = {}
    for event in trace.of_kind("send"):
        send_times[(event.copy, event.value)] = event.t
    for event in trace.of_kind("arrival"):
        sent = send_times.get((event.sender, event.value))
        if sent is None:
            problems.append(
                f"arrival at t={event.t} on copy {event.copy} matches no send"
            )
            continue
        transit = event.t - sent
        if not (0.0 < transit <= tau_transit + 1e-9):
            problems.append(
                f"message from copy {event.sender} took {transit} "
                f"(outside (0, {tau_transit}])"
            )
    return problems


def check_contiguous_pause_decrements(trace: SchemeTrace, eps: float) -> list[str]:
    """Candidates overwriting within one pause chain drop by the sender's decrement."""

    problems = []
    for copy in trace.copies():
        sender_dec = _decrement(copy + 1, eps)
        chain_value = None
        for event in trace.events:
            if event.copy != copy:
                continue
            if event.kind == "pause-begin":
                if chain_value is not None and event.value > chain_value - sender_dec:
                    problems.append(
                        f"copy {copy}: overwrite candidate {event.value!r} at "
                        f"t={event.t} exceeds {chain_value!r} - {sender_dec!r}"
                    )
                chain_value = event.value
            elif event.kind == "pause-end":
                chain_value = None
    return problems


def check_trace(
    trace: SchemeTrace,
    *,
    eps: float,
    N: int,
    f_star: float | None = None,
    tau_pause: float | None = None,
    tau_transit: float | None = None,
) -> list[str]:
    """Run every applicable invariant checker and collect violations."""

    problems = []
    problems += check_restart_decrements(trace, eps)
    problems += check_message_topology(trace, N)
    problems += check_top_copy_never_restarts(trace, N)
    if f_star is not None:
        problems += check_send_counts(trace, f_star, eps)
        problems += check_near_optimal_send_cap(trace, f_star, eps)
    if tau_pause is not None:
        problems += check_pause_bounds(trace, tau_pause)
    if tau_transit is not None:
        problems += check_transit_bounds(trace, tau_transit)
    problems += check_contiguous_pause_decrements(trace, eps)
    return problems
