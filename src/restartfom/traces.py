"""Trace records shared by both scheme engines, plus invariant checkers.

Every engine emits a flat, time-ordered list of :class:`TraceEvent` records.
The JSON-lines export (format 2) writes a header holding the distinct points
as one base64 little-endian float64 table, one object per event naming its
point by ``point_id`` (its table row), and a ``{"summary": {...}}`` record;
format-1 files (points inline, no header) still read.  The checkers in this
module validate the messaging and restart discipline of a finished run from
its trace alone, each in one pass over the events.

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
from typing import NamedTuple

import numpy as np

from restartfom.errors import ConfigError, NonFiniteValueError, ParameterError

_OPTIONAL_FIELDS = ("sender", "receiver", "source")
_ENCODER = json.JSONEncoder(allow_nan=False)
# The encoder's own scalar formats: np.float64's repr reads "np.float64(...)".
_FLOAT = float.__repr__
_STRING = json.encoder.encode_basestring_ascii
# Lines read per chunk (a size hint in characters); bounds the reader's memory.
_CHUNK_CHARS = 1 << 16


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a number a trace may hold")


# json accepts the non-standard NaN, Infinity and -Infinity; traces hold none.
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def point_tuple(point) -> tuple[float, ...]:
    """The immutable copy of a point that trace events and messages share."""

    return point if isinstance(point, tuple) else tuple(point.tolist())


def _dumps(record: dict) -> str:
    try:
        return _ENCODER.encode(record)
    except ValueError as exc:  # NaN and infinities are not JSON
        raise NonFiniteValueError(f"trace record {record!r}: {exc}") from exc


class TraceEvent(NamedTuple):
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
        get = record.get
        if "point_id" in record:
            point_id = record["point_id"]
            if not (isinstance(point_id, int) and 0 <= point_id < len(points)):
                raise IndexError(f"point_id {point_id!r} is not a row of the point table")
            point = points[point_id]
        else:
            point = get("point")  # format 1 stores the point inline
            if point is not None:
                point = tuple(float(v) for v in point)
        # tuple.__new__ skips the generated __new__ and its argument handling.
        event = tuple.__new__(cls, (float(record["t"]), int(record["copy"]),
                                    str(record["kind"]), float(record["value"]),
                                    point, get("sender"), get("receiver"), get("source")))
        if not (math.isfinite(event[0]) and math.isfinite(event[3])):
            raise ValueError(f"time {event[0]!r} and value {event[3]!r} must be finite")
        return event


def _event_line(event: TraceEvent, point_id: int | None) -> str:
    """``_dumps(event.to_record(point_id))``, formatted directly when every
    field has a type the engines write: finite floats, plain ints and strs."""

    t, copy, kind, value, _, sender, receiver, source = event
    if not (isinstance(t, float) and isinstance(value, float)
            and math.isfinite(t) and math.isfinite(value)
            and type(copy) is int and isinstance(kind, str)
            and (sender is None or type(sender) is int)
            and (receiver is None or type(receiver) is int)
            and (source is None or isinstance(source, str))):
        return _dumps(event.to_record(point_id))
    line = f'{{"t": {_FLOAT(t)}, "copy": {copy}, "kind": {_STRING(kind)}, "value": {_FLOAT(value)}'
    if point_id is not None:
        line += f', "point_id": {point_id}'
    if sender is not None:
        line += f', "sender": {sender}'
    if receiver is not None:
        line += f', "receiver": {receiver}'
    if source is not None:
        line += f', "source": {_STRING(source)}'
    return line + "}"


def _decode_chunk(lines: list[str]) -> list | None:
    """One record per line from a single parse of ``lines``, or None when
    the chunk has to be parsed line by line.

    Joined into one array, the lines parse to one element each only if no
    line runs on into the next.  Each separating comma follows a newline, so
    it is outside any string (JSON strings hold no raw newline); it precedes
    "{", so it cannot sit inside an object; and with no "[" in the chunk it
    cannot sit inside an array.  A line holding two values then shows as an
    extra element.
    """

    text = ",".join(lines)
    if "[" in text or text.count("\n,{") != len(lines) - 1:
        return None
    try:
        records = _DECODER.decode(f"[{text}]")
    except ValueError:
        return None
    return records if len(records) == len(lines) else None


def _chunks(handle):
    """The file's lines in bounded lists, the first line (a format-2 header,
    whose point table holds "[") on its own."""

    first = handle.readline()
    if first:
        yield [first]
        yield from iter(lambda: handle.readlines(_CHUNK_CHARS), [])


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


class Message(NamedTuple):
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
        for event in self.events:
            if event.kind == "init":
                return event.value
        raise ParameterError("trace has no init events")

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
                handle.write(_event_line(event, point_id) + "\n")
            if summary is not None:
                handle.write(_dumps({"summary": summary}) + "\n")

    @classmethod
    def read_jsonl(cls, path) -> tuple["SchemeTrace", dict | None]:
        """Read a format-2 or format-1 file; a malformed line raises
        :class:`ConfigError` located as ``path:line``."""

        trace = cls()
        append, from_record = trace.events.append, TraceEvent.from_record
        summary = None
        points: list[tuple[float, ...]] = []
        number = 0  # lines before the chunk
        with open(path, "r", encoding="utf-8") as handle:
            for lines in _chunks(handle):
                records = _decode_chunk(lines) or [None] * len(lines)
                try:
                    for offset, (line, record) in enumerate(zip(lines, records)):
                        if record is None:  # parse the line on its own
                            if line.isspace():
                                continue
                            record = _DECODER.decode(line)
                        if not isinstance(record, dict):
                            raise TypeError(f"expected a JSON object, got {line.strip()[:40]!r}")
                        if "summary" in record:
                            summary = record["summary"]
                        elif "points" in record:
                            table = record["points"]
                            rows = np.frombuffer(binascii.a2b_base64(table["b64"]),
                                                 dtype=table["dtype"])
                            points = list(map(tuple, rows.reshape(table["shape"]).tolist()))
                        else:
                            append(from_record(record, points))
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    # binascii.Error and JSONDecodeError are ValueErrors
                    raise ConfigError(f"{path}:{number + offset + 1}",
                                      f"malformed trace record: {exc}") from exc
                number += len(lines)
        return trace, summary


# ---------------------------------------------------------------------------
# Invariant checkers: each returns a list of violation descriptions.
# ---------------------------------------------------------------------------


def _decrement(copy: int, eps: float) -> float:
    return (2.0 ** copy) * eps


def _copy_by_copy(found: dict) -> list[str]:
    """The problems a one-pass checker collected under sortable keys that
    start with the copy, in the order of those keys."""

    return [problem for key in sorted(found) for problem in found[key]]


def check_restart_decrements(trace: SchemeTrace, eps: float) -> list[str]:
    """Restart (and top-copy update) values drop by at least the decrement."""

    f_x0 = trace.initial_value()
    previous: dict[tuple[int, str], float] = {}
    found: dict[tuple[int, str], list[str]] = {}  # "restart" sorts before "task-update"
    for event in trace.events:
        kind = event.kind
        if kind == "restart" or kind == "task-update":
            key = (event.copy, kind)
            before = previous.get(key, f_x0)
            dec = _decrement(event.copy, eps)
            if event.value > before - dec:
                found.setdefault(key, []).append(
                    f"copy {event.copy}: {kind} value {event.value!r} at t={event.t} "
                    f"exceeds {before!r} - {dec!r}"
                )
            previous[key] = event.value
    return _copy_by_copy(found)


def check_message_topology(trace: SchemeTrace, N: int) -> list[str]:
    """Messages flow only from copy n to copy n - 1; copy N receives none."""

    sends, arrivals = [], []
    for event in trace.events:
        if event.kind == "send":
            if event.receiver != event.copy - 1:
                sends.append(
                    f"send at t={event.t} from copy {event.copy} to {event.receiver}"
                )
            if event.copy <= -1:
                sends.append(f"copy {event.copy} sent a message at t={event.t}")
        elif event.kind == "arrival":
            if event.sender != event.copy + 1:
                arrivals.append(
                    f"arrival at t={event.t} on copy {event.copy} from {event.sender}"
                )
            if event.copy == N:
                arrivals.append(f"copy {N} received a message at t={event.t}")
    return sends + arrivals


def check_top_copy_never_restarts(trace: SchemeTrace, N: int) -> list[str]:
    return [
        f"copy {N} restarted at t={e.t}"
        for e in trace.of_kind("restart", N)
    ]


def _sends_by_copy(trace: SchemeTrace) -> dict[int, list[TraceEvent]]:
    sends: dict[int, list[TraceEvent]] = {}
    for event in trace.events:
        if event.kind == "send":
            sends.setdefault(event.copy, []).append(event)
    return sends


def check_near_optimal_send_cap(trace: SchemeTrace, f_star: float, eps: float) -> list[str]:
    """After a send with value < f_star + 2 * 2^n eps, at most one more send."""

    problems = []
    by_copy = _sends_by_copy(trace)
    for copy in sorted(by_copy):
        sends = by_copy[copy]
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
    by_copy = _sends_by_copy(trace)
    for copy in sorted(by_copy):
        cap = math.ceil(gap / _decrement(copy, eps))
        sent = len(by_copy[copy])
        if sent > cap:
            problems.append(f"copy {copy}: {sent} sends exceed cap {cap}")
    return problems


def check_lockstep_iterates(trace: SchemeTrace, periods: int) -> list[str]:
    """Lockstep runs log exactly one iterate per copy per period 1..periods."""

    times: dict[int, list[float]] = {copy: [] for copy in trace.copies()}
    for event in trace.events:
        if event.kind == "iterate":
            times[event.copy].append(event.t)
    expected = [float(p) for p in range(1, periods + 1)]
    return [
        f"copy {copy}: iterate times {copy_times} differ from periods {expected}"
        for copy, copy_times in times.items() if copy_times != expected
    ]


def check_pause_bounds(trace: SchemeTrace, tau_pause: float) -> list[str]:
    """Every realized pause lasts a positive time of at most tau_pause."""

    begun: dict[int, float] = {}  # copy -> start of its open pause
    found: dict[int, list[str]] = {}
    for event in trace.events:
        if event.kind == "pause-begin":
            begun[event.copy] = event.t  # overwrites restart the clock
        elif event.kind == "pause-end":
            copy = event.copy
            begun_at = begun.pop(copy, None)
            if begun_at is None:
                found.setdefault(copy, []).append(
                    f"copy {copy}: pause-end at t={event.t} without begin")
                continue
            duration = event.t - begun_at
            if not (0.0 < duration <= tau_pause + 1e-9):
                found.setdefault(copy, []).append(
                    f"copy {copy}: pause of {duration} at t={event.t} "
                    f"outside (0, {tau_pause}]"
                )
    return _copy_by_copy(found)


def check_transit_bounds(trace: SchemeTrace, tau_transit: float) -> list[str]:
    """Every delivered message arrives within (0, tau_transit] of its send."""

    problems = []
    send_times = {}
    arrivals = []
    for event in trace.events:
        if event.kind == "send":
            send_times[(event.copy, event.value)] = event.t
        elif event.kind == "arrival":
            arrivals.append(event)
    for event in arrivals:
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

    chains: dict[int, float] = {}  # copy -> candidate value of its open pause chain
    found: dict[int, list[str]] = {}
    for event in trace.events:
        if event.kind == "pause-begin":
            copy = event.copy
            chain_value = chains.get(copy)
            sender_dec = _decrement(copy + 1, eps)
            if chain_value is not None and event.value > chain_value - sender_dec:
                found.setdefault(copy, []).append(
                    f"copy {copy}: overwrite candidate {event.value!r} at "
                    f"t={event.t} exceeds {chain_value!r} - {sender_dec!r}"
                )
            chains[copy] = event.value
        elif event.kind == "pause-end":
            chains.pop(event.copy, None)
    return _copy_by_copy(found)


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
