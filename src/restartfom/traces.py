"""Trace records shared by both scheme engines, plus invariant checkers.

An engine logs each ladder action through :meth:`SchemeTrace.record`, which
appends the fields of one :class:`TraceEvent` to a list per field and gives
its point the row of the first equal point seen.  ``columns()`` finalizes the
lists once into :class:`TraceColumns` and the point table ``points``, and
``events`` is the read-only view of those columns: a tuple of events, so an
edit is made by recording the edited events into a new ``SchemeTrace``.  The
JSON-lines export (format 5) writes a header holding ``points`` as one base64
little-endian float64 table, the events in blocks of at most ``BLOCK_EVENTS``
(a line each, holding every column as a base64 little-endian array of its
``DTYPES`` entry), and a ``{"summary": {...}}`` record.  ``copy``, ``sender``
and ``receiver`` are int16 with ``NO_COPY`` for none, ``kind`` and ``source``
index ``KINDS`` and ``SOURCES`` (-1 for no source), and ``point_id`` is a row
of the table (-1 for no point).  A file without the format-5 header, such as
one of formats 1-4, is refused.  A trace read from a file holds the columns
it stored and refuses a record, and the checkers validate the messaging and
restart discipline of a finished run from those alone, each as numpy passes
(``tests/reference_checkers.py`` keeps the loops they replaced).

Event kinds
-----------
``init``
    The evaluation of the shared start point, stamped t = 0.
``iterate``
    One method iteration committed by a copy; ``value`` is the copy's best
    objective value since its last restart (what the copy knows it has).
``restart``, ``task-update``
    A copy restarted, or the top copy moved its reference without
    restarting; ``value``/``point`` describe the new start or reference, and
    a restart's ``source`` says whether it came from the copy's own work
    ("own") or its inbox ("inbox").  Above copy -1 the event is also the
    send of that point to ``receiver`` = copy - 1; no other event names one.
``arrival``, ``pause-end``
    Asynchronous engine: a message from ``sender`` landed, which starts the
    copy's pause unless it is idle (a newer arrival starts it over), and the
    pause ended with its candidate examined.
"""

from __future__ import annotations

import base64
import json
import math
from itertools import repeat
from typing import Iterable, NamedTuple

import numpy as np

from restartfom.errors import ConfigError, NonFiniteValueError, ParameterError

KINDS = ("init", "iterate", "restart", "task-update", "arrival", "pause-end")  # by kind code
EVENT_KINDS = frozenset(KINDS)
SOURCES = ("own", "inbox")  # by source code
_KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}
_SOURCE_CODES = {None: -1, **{source: code for code, source in enumerate(SOURCES)}}
_INIT, _ITERATE, _RESTART, _UPDATE, _ARRIVAL, _PAUSE_END = range(len(KINDS))
NO_COPY = np.iinfo(np.int16).min  # an absent sender or receiver; ids lie in -32767..32767
BLOCK_EVENTS = 4096  # events per block line; bounds what one block holds in memory
# The event fields in order, each with the dtype of its column and of its block entry.
DTYPES = {"t": "<f8", "value": "<f8", "copy": "<i2", "kind": "i1", "sender": "<i2",
          "receiver": "<i2", "source": "i1", "point_id": "<i4"}
TraceColumns = NamedTuple("TraceColumns", [(name, np.ndarray) for name in DTYPES])
_ENCODER = json.JSONEncoder(allow_nan=False)


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a number a trace may hold")


# json accepts the non-standard NaN, Infinity and -Infinity; traces hold none.
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def _dumps(record: dict) -> str:
    try:
        return _ENCODER.encode(record)
    except ValueError as exc:  # NaN and infinities are not JSON
        raise NonFiniteValueError(f"trace record: {exc}") from exc


def _b64(column: np.ndarray) -> str:
    return base64.b64encode(column.tobytes()).decode("ascii")


def _array(text, dtype: str) -> np.ndarray:
    """The array a base64 string holds; characters outside the alphabet are refused."""

    return np.frombuffer(base64.b64decode(text, validate=True), dtype)


def _ids(column: list, name: str, nulls: int = 0) -> np.ndarray:
    """Copy ids as int16, None as NO_COPY; an int outside -32767..32767, or a
    None beyond the ``nulls`` the column may hold, is refused."""

    try:
        ids = np.fromiter(map({None: NO_COPY}.get, column, column), np.int64, len(column))
    except OverflowError:  # beyond int64
        ids = None
    if ids is None or np.count_nonzero((ids < -32767) | (ids > 32767)) != nulls:
        raise ParameterError(f"{name} holds an id outside -32767..32767")
    return ids.astype(DTYPES[name])


def _codes(column: list, codes: dict, name: str) -> np.ndarray:
    try:
        return np.fromiter(map(codes.__getitem__, column), DTYPES[name], len(column))
    except KeyError as exc:
        raise ParameterError(f"{name} {exc} is not one of {[*codes]}") from None


def _block_columns(record: dict, rows: int) -> TraceColumns:
    """The columns of one block record; ``rows`` is the point table's length."""

    c = TraceColumns(*(_array(record[name], dtype) for name, dtype in DTYPES.items()))
    for name, column in zip(DTYPES, c):
        if len(column) != record["events"]:
            raise ValueError(f"{name} holds {len(column)} entries, not {record['events']}")
    for name, ok, expected in (
            ("t", np.isfinite(c.t), "finite"), ("value", np.isfinite(c.value), "finite"),
            ("copy", c.copy != NO_COPY, "a copy"),
            ("kind", (0 <= c.kind) & (c.kind < len(KINDS)), "a kind code"),
            ("source", (-1 <= c.source) & (c.source < len(SOURCES)), "-1 or a source code"),
            ("point_id", (-1 <= c.point_id) & (c.point_id < rows), "-1 or a table row")):
        if not ok.all():
            index = int(ok.argmin())
            raise ValueError(f"event {index} of the block: {name} "
                             f"{getattr(c, name)[index].item()!r} is not {expected}")
    return c


class TraceEvent(NamedTuple):
    t: float
    copy: int
    kind: str
    value: float
    point: tuple[float, ...] | None = None
    sender: int | None = None
    receiver: int | None = None
    source: str | None = None


class SchemeTrace:
    """Time-ordered event log of one scheme run with derived views."""

    def __init__(self, events: Iterable[TraceEvent] = ()):
        self.points = np.empty((0, 0))  # the distinct points, the rows point_id names
        self._recorded = TraceColumns(*([] for _ in DTYPES))  # one list per field
        self._rows: dict[tuple[float, ...], int] = {}  # each distinct point's row
        self._columns: TraceColumns | None = None
        for event in events:
            self.record(*event)

    def record(self, t: float, copy: int, kind: str, value: float, point=None, sender=None,
               receiver=None, source=None) -> None:
        """Append one event, its fields as in :class:`TraceEvent`; a trace read
        from a file is complete and refuses it."""

        r = self._recorded
        if r is None:
            raise ParameterError("a trace read from a file records no events; "
                                 "record into SchemeTrace(trace.events) instead")
        self._columns = None
        r.t.append(t)
        r.value.append(value)
        r.copy.append(copy)
        r.kind.append(kind)
        r.sender.append(sender)
        r.receiver.append(receiver)
        r.source.append(source)
        r.point_id.append(-1 if point is None else self._rows.setdefault(point, len(self._rows)))

    def columns(self) -> TraceColumns:
        """The recorded fields as arrays, with ``points``; built again only after a record."""

        if self._columns is None:
            r, rows = self._recorded, self._rows
            self.points = np.array([*rows], dtype="<f8") if rows else np.empty((0, 0))
            self.__dict__.pop("events", None)  # a view of older columns
            self._columns = TraceColumns(
                np.array(r.t, dtype="<f8"), np.array(r.value, dtype="<f8"), _ids(r.copy, "copy"),
                _codes(r.kind, _KIND_CODES, "kind"), _ids(r.sender, "sender", r.sender.count(None)),
                _ids(r.receiver, "receiver", r.receiver.count(None)),
                _codes(r.source, _SOURCE_CODES, "source"), np.array(r.point_id, DTYPES["point_id"]))
        return self._columns

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """The columns read back as a tuple of events, built once and kept in ``vars(self)``."""

        t, value, copy, kind, sender, receiver, source, point_id = self.columns()
        if "events" not in self.__dict__:
            rows = [*map(tuple, self.points.tolist()), None]  # point_id -1 is None
            sender, receiver = (map(_or_none, column.tolist()) for column in (sender, receiver))
            # tuple.__new__ skips the generated __new__ and its argument handling.
            self.__dict__["events"] = tuple(map(tuple.__new__, repeat(TraceEvent), zip(
                t.tolist(), copy.tolist(), map(KINDS.__getitem__, kind.tolist()), value.tolist(),
                map(rows.__getitem__, point_id.tolist()), sender, receiver,
                map((*SOURCES, None).__getitem__, source.tolist()))))
        return self.__dict__["events"]

    def __eq__(self, other) -> bool:
        return isinstance(other, SchemeTrace) and self.events == other.events

    def of_kind(self, kind: str, copy: int | None = None) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind and (copy is None or e.copy == copy)]

    def copies(self) -> list[int]:
        return sorted({e.copy for e in self.events})

    def initial_value(self) -> float:
        c = self.columns()
        for value in c.value[c.kind == _INIT][:1].tolist():
            return value
        raise ParameterError("trace has no init events")

    def restart_points(self, copy: int) -> list[tuple[float, ...]]:
        return [e.point for e in self.of_kind("restart", copy)]

    def write_jsonl(self, path, summary: dict | None = None) -> None:
        """Write the format-5 file: point table header, event blocks, summary."""

        c = self.columns()
        for floats in (c.t, c.value, self.points):
            if not np.isfinite(floats).all():
                bad = floats[~np.isfinite(floats)][0]
                raise NonFiniteValueError(f"a trace holds finite floats only, not {bad}")
        points = {"shape": list(self.points.shape), "b64": _b64(self.points)}
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_dumps({"format": 5, "points": points}) + "\n")
            for start in range(0, len(c.t), BLOCK_EVENTS):
                block = [column[start:start + BLOCK_EVENTS] for column in c]
                handle.write(f'{{"events":{len(block[0])}' + "".join(
                    f',"{name}":"{_b64(column)}"' for name, column in zip(DTYPES, block)) + "}\n")
            if summary is not None:
                handle.write(_dumps({"summary": summary}) + "\n")

    @classmethod
    def read_jsonl(cls, path) -> tuple["SchemeTrace", dict | None]:
        """Read a format-5 file into columns; a first line that is not the
        format-5 header, or a malformed line, raises :class:`ConfigError`
        located as ``path:line``."""

        trace = cls()
        blocks = [trace.columns()]  # no events: each column empty, of its dtype
        summary = None
        number = 1  # the line being read
        with open(path, "r", encoding="utf-8") as handle:
            try:
                header = _DECODER.decode(handle.readline())
                if not isinstance(header, dict) or header.get("format") != 5:
                    raise ValueError("the first line is not the format-5 header")
                points, shape = _array(header["points"]["b64"], "<f8"), header["points"]["shape"]
                if (type(shape) is not list or len(shape) != 2
                        or not all(type(n) is int and n >= 0 for n in shape)
                        or shape[0] * shape[1] != len(points)):
                    raise ValueError(f"the point table's shape {shape!r} is not two "
                                     f"non-negative ints whose product is {len(points)}")
                if not np.isfinite(points).all():
                    raise ValueError("the point table holds a value that is not finite")
                trace.points = points.reshape(shape)
                for number, line in enumerate(handle, 2):
                    if line.isspace():
                        continue
                    record = _DECODER.decode(line)
                    if not isinstance(record, dict):
                        raise TypeError(f"expected a JSON object, got {line.strip()[:40]!r}")
                    if "summary" in record:
                        summary = record["summary"]
                    else:
                        blocks.append(_block_columns(record, shape[0]))
            except (KeyError, TypeError, ValueError) as exc:
                # binascii.Error (from base64) and JSONDecodeError are ValueErrors
                raise ConfigError(f"{path}:{number}",
                                  f"malformed trace record: {exc}") from exc
        trace._columns = TraceColumns(*map(np.concatenate, zip(*blocks)))
        trace._recorded = None  # the columns were read, not recorded
        return trace, summary


# ---------------------------------------------------------------------------
# Invariant checkers: each returns a list of violation descriptions.  Floats
# leave the arrays through tolist(), so a message shows repr(float).
# ---------------------------------------------------------------------------


def _by_copy(columns: TraceColumns, mask: np.ndarray) -> np.ndarray:
    """The indices of the events in ``mask``, by copy and in order within one."""

    at = mask.nonzero()[0]
    return at[np.argsort(columns.copy[at], kind="stable")]


def _new_run(*keys: np.ndarray) -> np.ndarray:
    """Whether each entry is the first, or differs in a key from the one before."""

    new = np.zeros(len(keys[0]), dtype=bool)
    new[:1] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    return new


def _previous(column: np.ndarray) -> np.ndarray:
    return np.concatenate([column[:1], column[:-1]])


def _pauses(c: TraceColumns):
    """Arrivals and pause ends by copy, which are arrivals, which follow one."""

    at = _by_copy(c, (c.kind == _ARRIVAL) | (c.kind == _PAUSE_END))
    arrival = c.kind[at] == _ARRIVAL
    return at, arrival, _previous(arrival) & ~_new_run(c.copy[at])


def _rows(mask: np.ndarray, *columns: np.ndarray):
    """The Python values of ``columns`` where ``mask`` holds, row by row."""

    flagged = mask.nonzero()[0]
    return zip(*(column[flagged].tolist() for column in columns)) if len(flagged) else ()


def _or_none(copy: int) -> int | None:
    return None if copy == NO_COPY else copy


@np.errstate(over="ignore", invalid="ignore")
def check_restart_decrements(trace: SchemeTrace, eps: float) -> list[str]:
    """Restart (and top-copy update) values drop by at least the decrement."""

    f_x0 = trace.initial_value()
    c = trace.columns()
    at = ((c.kind == _RESTART) | (c.kind == _UPDATE)).nonzero()[0]
    at = at[np.lexsort((c.kind[at], c.copy[at]))]  # by copy, "restart" before "task-update"
    copy, kind, value = c.copy[at], c.kind[at], c.value[at]
    before = np.where(_new_run(copy, kind), f_x0, _previous(value))
    dec = np.ldexp(float(eps), copy)
    return [f"copy {n}: {KINDS[k]} value {v!r} at t={s} exceeds {b!r} - {d!r}" for n, k, v, s, b, d
            in _rows(value > before - dec, copy, kind, value, c.t[at], before, dec)]


def check_message_topology(trace: SchemeTrace, N: int) -> list[str]:
    """Copies lie on the ladder -1..N, and messages flow only from copy n to
    copy n - 1: every restart or task update above copy -1 sends, nothing
    else does, and copy N receives none."""

    c = trace.columns()
    copy, arrival = c.copy.astype(int), c.kind == _ARRIVAL  # copy + 1 must not wrap
    problems = [f"copy {n} lies outside the ladder -1..{N}"
                for n in sorted(set(copy[(copy < -1) | (copy > N)].tolist()))]
    sends = ((c.kind == _RESTART) | (c.kind == _UPDATE)) & (copy > -1)
    wrong_receiver = c.receiver != np.where(sends, copy - 1, NO_COPY)
    wrong_sender = arrival & (c.sender != copy + 1)
    at_top = arrival & (copy == N)
    for k, s, n, receiver, sender, bad_receiver, bad_sender, top in _rows(
            wrong_receiver | wrong_sender | at_top, c.kind, c.t, copy, c.receiver, c.sender,
            wrong_receiver, wrong_sender, at_top):
        if bad_receiver:
            problems.append(f"{KINDS[k]} at t={s} on copy {n}: receiver {_or_none(receiver)}")
        if bad_sender:
            problems.append(f"arrival at t={s} on copy {n} from {_or_none(sender)}")
        if top:
            problems.append(f"copy {N} received a message at t={s}")
    return problems


def check_top_copy_never_restarts(trace: SchemeTrace, N: int) -> list[str]:
    c = trace.columns()
    return [f"copy {N} restarted at t={s}"
            for s in c.t[(c.kind == _RESTART) & (c.copy == N)].tolist()]


@np.errstate(over="ignore", invalid="ignore")
def check_near_optimal_send_cap(trace: SchemeTrace, f_star: float, eps: float) -> list[str]:
    """After a send with value < f_star + 2 * 2^n eps, at most one more send."""

    c = trace.columns()
    at = _by_copy(c, c.receiver != NO_COPY)
    copy, value = c.copy[at], c.value[at]
    starts = _new_run(copy).nonzero()[0]  # each copy's first send
    threshold = f_star + 2.0 * np.ldexp(float(eps), copy)
    near = (value < threshold).nonzero()[0]
    group = np.searchsorted(starts, near, side="right") - 1
    first = _new_run(group)  # each copy's first near-optimal send
    near, group = near[first], group[first]
    extra = np.append(starts[1:], len(at))[group] - near - 1
    return [f"copy {n}: {e} sends after near-optimal send (value {v!r} < {b!r}) at t={s}"
            for n, e, v, b, s in _rows(extra > 1, copy[near], extra, value[near],
                                       threshold[near], c.t[at[near]])]


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def check_send_counts(trace: SchemeTrace, f_star: float, eps: float) -> list[str]:
    """Total sends by copy n stay within ceil(gap / 2^n eps)."""

    gap = trace.initial_value() - f_star
    c = trace.columns()
    copies, sent = np.unique(c.copy[c.receiver != NO_COPY], return_counts=True)
    cap = gap / np.ldexp(float(eps), copies)  # inf when it overflows, and no count exceeds that
    return [f"copy {n}: {k} sends exceed cap {math.ceil(b)}" for n, k, b
            in _rows((gap > 0.0) & (sent > cap) & (sent > np.ceil(cap)), copies, sent, cap)]


def check_lockstep_iterates(trace: SchemeTrace, periods: int) -> list[str]:
    """Lockstep runs log exactly one iterate per copy per period 1..periods."""

    c = trace.columns()
    copies = np.unique(c.copy)
    at = _by_copy(c, c.kind == _ITERATE)
    starts = np.searchsorted(c.copy[at], copies)
    counts = np.diff(starts, append=len(at))
    # The k-th iterate of a copy (k from 0) belongs at t = k + 1.
    on = np.cumsum(np.r_[0, c.t[at] == np.arange(1, len(at) + 1) - np.repeat(starts, counts)])
    bad = (counts != max(periods, 0)) | (on[starts + counts] - on[starts] != counts)
    return [f"copy {n}: iterate times {c.t[at[start:start + count]].tolist()} differ from "
            f"periods {[float(p) for p in range(1, periods + 1)]}"
            for n, start, count in _rows(bad, copies, starts, counts)]


@np.errstate(over="ignore", invalid="ignore")
def check_pause_bounds(trace: SchemeTrace, tau_pause: float) -> list[str]:
    """Every realized pause lasts a positive time of at most tau_pause."""

    c = trace.columns()
    at, arrival, begun = _pauses(c)  # a newer arrival restarts the clock
    t = c.t[at]
    span = t - _previous(t)
    fits = (0.0 < span) & (span <= tau_pause + 1e-9)
    return [f"copy {n}: pause of {d} at t={s} outside (0, {tau_pause}]" if opened else
            f"copy {n}: pause-end at t={s} without begin"
            for n, s, d, opened in _rows(~(arrival | begun & fits), c.copy[at], t, span, begun)]


@np.errstate(over="ignore", invalid="ignore")
def check_transit_bounds(trace: SchemeTrace, tau_transit: float) -> list[str]:
    """Every delivered message arrives within (0, tau_transit] of its send,
    the last one of its sender with its value."""

    c = trace.columns()
    sends = (c.receiver != NO_COPY).nonzero()[0]
    arrivals = ((c.kind == _ARRIVAL) & (c.receiver == NO_COPY)).nonzero()[0]
    # Sends, then arrivals under their sender, stably sorted by (copy, value):
    # an arrival follows every send of its key, the last of them nearest.
    events = np.concatenate([sends, arrivals])
    copy, value = np.concatenate([c.copy[sends], c.sender[arrivals]]), c.value[events]
    order = np.lexsort((value, copy))
    latest = np.maximum.accumulate(np.where(order < len(sends), np.arange(len(order)), -1))
    latest = latest[np.argsort(order)[len(sends):]]  # each arrival's candidate, -1 if none
    send = order[np.maximum(latest, 0)]
    matched = ((latest >= 0) & (copy[send] == copy[len(sends):])
               & (value[send] == value[len(sends):]))
    transit = c.t[arrivals] - c.t[events[send]]
    fits = (0.0 < transit) & (transit <= tau_transit + 1e-9)
    return [f"message from copy {sender} took {d} (outside (0, {tau_transit}])" if found else
            f"arrival at t={s} on copy {n} matches no send" for s, n, sender, d, found in _rows(
                ~(matched & fits), c.t[arrivals], c.copy[arrivals], c.sender[arrivals],
                transit, matched)]


@np.errstate(over="ignore", invalid="ignore")
def check_contiguous_pause_decrements(trace: SchemeTrace, eps: float) -> list[str]:
    """Candidates overwriting within one pause chain drop by the sender's decrement."""

    c = trace.columns()
    at, arrival, chained = _pauses(c)
    j = (arrival & chained).nonzero()[0]  # an arrival that overwrites an open pause's candidate
    new, old = at[j], at[j - 1]
    dec = np.ldexp(float(eps), c.copy[new].astype(int) + 1)
    return [f"copy {n}: overwrite candidate {v!r} at t={s} exceeds {b!r} - {d!r}"
            for n, v, s, b, d in _rows(c.value[new] > c.value[old] - dec, c.copy[new],
                                       c.value[new], c.t[new], c.value[old], dec)]


def check_trace(trace: SchemeTrace, *, eps: float, N: int, f_star: float | None = None,
                tau_pause: float | None = None, tau_transit: float | None = None) -> list[str]:
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
