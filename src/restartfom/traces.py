"""Trace records shared by both scheme engines, plus invariant checkers.

Every engine emits a flat, time-ordered list of :class:`TraceEvent` records.
The JSON-lines export (format 3) writes a header holding the distinct points
as one base64 little-endian float64 table, the events in blocks of at most
``BLOCK_EVENTS`` (a line each, one array per field: ``t`` and ``value`` as
base64 float64, ``point_id`` as table rows, ``null`` where a field is absent),
and a ``{"summary": {...}}`` record; a file without that header is refused.
The checkers in this module validate the messaging and restart discipline of
a finished run from its trace alone, each in one pass over the events.

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

import base64
import json
import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from restartfom.errors import ConfigError, NonFiniteValueError, ParameterError

BLOCK_EVENTS = 4096  # events per block line; bounds what one block holds in memory
_ENCODER = json.JSONEncoder(allow_nan=False)
_BLOCK_ENCODER = json.JSONEncoder(allow_nan=False, separators=(",", ":"))  # no space per entry
_NULL = type(None)
# The fields a block stores as JSON arrays: name, entry types, what an entry must be.
_COLUMNS = (
    ("copy", {int, bool}, "an int"),
    ("kind", {str}, "a str"),
    ("point_id", {int, _NULL}, "null or a row of the point table"),
    ("sender", {int, bool, _NULL}, "null or an int"),
    ("receiver", {int, bool, _NULL}, "null or an int"),
    ("source", {str, _NULL}, "null or a str"),
)


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a number a trace may hold")


# json accepts the non-standard NaN, Infinity and -Infinity; traces hold none.
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def point_tuple(point) -> tuple[float, ...]:
    """The immutable copy of a point that trace events and messages share."""

    return point if isinstance(point, tuple) else tuple(point.tolist())


def _dumps(record: dict, encoder: json.JSONEncoder = _ENCODER) -> str:
    try:
        return encoder.encode(record)
    except ValueError as exc:  # NaN and infinities are not JSON
        raise NonFiniteValueError(f"trace record: {exc}") from exc


def _b64(values) -> str:
    """Finite floats (a time or value column, or the point table) as base64
    little-endian float64."""

    column = np.asarray(values, dtype="<f8")
    finite = np.isfinite(column)
    if not finite.all():
        bad = float(column[~finite][0])
        raise NonFiniteValueError(f"a trace holds finite floats only, not {bad}")
    return base64.b64encode(column.tobytes()).decode("ascii")


def _floats(text, count: int, name: str) -> list[float]:
    """The ``count`` finite floats of a base64 column."""

    column = np.frombuffer(base64.b64decode(text, validate=True), dtype="<f8")
    if len(column) != count:
        raise ValueError(f"{name} holds {len(column)} floats, not {count}")
    finite = np.isfinite(column)
    if not finite.all():
        index = int(finite.argmin())
        raise ValueError(f"event {index} of the block: {name} {column[index]} is not finite")
    return column.tolist()


def _first_bad(column: list, name: str, ok, expected: str):
    index = next(i for i, item in enumerate(column) if not ok(item))
    raise TypeError(f"event {index} of the block: {name} {column[index]!r} is not {expected}")


class TraceEvent(NamedTuple):
    t: float
    copy: int
    kind: str
    value: float
    point: tuple[float, ...] | None = None
    sender: int | None = None
    receiver: int | None = None
    source: str | None = None


def _block_line(block: list[TraceEvent], point_ids: list[int | None]) -> str:
    t, copy, kind, value, _, sender, receiver, source = zip(*block)
    # One encode per column: the C encoder keeps every chunk until it joins them all.
    return "".join([f'{{"events":{len(block)},"t":"{_b64(t)}","value":"{_b64(value)}"', *(
        f',"{name}":{_dumps(column, _BLOCK_ENCODER)}' for (name, _, _), column
        in zip(_COLUMNS, (copy, kind, point_ids, sender, receiver, source))), "}"])


def _block_events(record: dict, rows: dict):
    """The events of one block record; ``rows`` maps each point id (and None)
    to its point."""

    count = record["events"]
    t, value = _floats(record["t"], count, "t"), _floats(record["value"], count, "value")
    columns = []
    for name, types, expected in _COLUMNS:
        column = record[name]
        if type(column) is not list or len(column) != count:
            raise ValueError(f"{name} is not an array of {count} entries")
        if not types.issuperset(map(type, column)):
            _first_bad(column, name, lambda item: type(item) in types, expected)
        columns.append(column)
    copy, kind, point_id, sender, receiver, source = columns
    if not rows.keys() >= set(point_id):
        _first_bad(point_id, "point_id", rows.__contains__, "a row of the point table")
    points = map(rows.__getitem__, point_id)
    # tuple.__new__ skips the generated __new__ and its argument handling.
    return map(tuple.__new__, repeat(TraceEvent, count),
               zip(t, copy, kind, value, points, sender, receiver, source))


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


class SchemeTrace:
    """Time-ordered event log of one scheme run with derived views."""

    def __init__(self, events: list[TraceEvent] | None = None):
        self.events: list[TraceEvent] = list(events) if events else []

    def append(self, event: TraceEvent) -> None:
        self.events.append(event)

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

    def write_jsonl(self, path, summary: dict | None = None) -> None:
        """Write the format-3 file: point table header, event blocks, summary."""

        rows: dict[tuple[float, ...], int] = {}
        add = rows.setdefault
        point_ids = [None if e.point is None else add(e.point, len(rows)) for e in self.events]
        table = np.array(list(rows), dtype="<f8")
        points = {"dtype": "<f8", "shape": list(table.shape), "b64": _b64(table)}
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_dumps({"format": 3, "points": points}) + "\n")
            for start in range(0, len(self.events), BLOCK_EVENTS):
                stop = start + BLOCK_EVENTS
                handle.write(_block_line(self.events[start:stop], point_ids[start:stop]) + "\n")
            if summary is not None:
                handle.write(_dumps({"summary": summary}) + "\n")

    @classmethod
    def read_jsonl(cls, path) -> tuple["SchemeTrace", dict | None]:
        """Read a format-3 file; a first line that is not the format-3 header,
        or a malformed line, raises :class:`ConfigError` located as
        ``path:line``."""

        trace = cls()
        summary = None
        number = 1  # the line being read
        with open(path, "r", encoding="utf-8") as handle:
            try:
                header = _DECODER.decode(handle.readline())
                if not isinstance(header, dict) or header.get("format") != 3:
                    raise ValueError("the first line is not the format-3 header")
                table = header["points"]
                points = np.frombuffer(base64.b64decode(table["b64"], validate=True),
                                       dtype=table["dtype"])
                if not np.isfinite(points).all():
                    raise ValueError("the point table holds a value that is not finite")
                rows = dict(enumerate(map(tuple, points.reshape(table["shape"]).tolist())))
                rows[None] = None
                for number, line in enumerate(handle, 2):
                    if line.isspace():
                        continue
                    record = _DECODER.decode(line)
                    if not isinstance(record, dict):
                        raise TypeError(f"expected a JSON object, got {line.strip()[:40]!r}")
                    if "summary" in record:
                        summary = record["summary"]
                    else:
                        trace.events.extend(_block_events(record, rows))
            except (KeyError, TypeError, ValueError) as exc:
                # binascii.Error (from base64) and JSONDecodeError are ValueErrors
                raise ConfigError(f"{path}:{number}",
                                  f"malformed trace record: {exc}") from exc
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
        cap = gap / _decrement(copy, eps)  # inf when it overflows, and no count exceeds that
        sent = len(by_copy[copy])
        if sent > cap and sent > math.ceil(cap):
            problems.append(f"copy {copy}: {sent} sends exceed cap {math.ceil(cap)}")
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
