"""The invariant checkers as event loops, kept as the reference that
``restartfom.traces``' numpy checkers must match (see ``test_checkers.py``).

Each checker walks ``trace.events`` once, as the library did before its
checkers became passes over the columnar form.
"""

from __future__ import annotations

import math

from restartfom.errors import ParameterError
from restartfom.traces import SchemeTrace, TraceEvent


def _initial_value(trace: SchemeTrace) -> float:
    for event in trace.events:
        if event.kind == "init":
            return event.value
    raise ParameterError("trace has no init events")


def _decrement(copy: int, eps: float) -> float:
    return (2.0 ** copy) * eps


def _copy_by_copy(found: dict) -> list[str]:
    """The problems a one-pass checker collected under sortable keys that
    start with the copy, in the order of those keys."""

    return [problem for key in sorted(found) for problem in found[key]]


def check_restart_decrements(trace: SchemeTrace, eps: float) -> list[str]:
    """Restart (and top-copy update) values drop by at least the decrement."""

    f_x0 = _initial_value(trace)
    previous: dict[tuple[int, str], float] = {}
    found: dict[tuple[int, str], list[str]] = {}  # "restart" sorts before "task-update"
    for event in trace.events:
        kind = event.kind
        if kind == "restart" or kind == "task-update":
            key = (event.copy, kind)
            before = previous.get(key, f_x0)
            dec = _decrement(event.copy, eps)
            if event.value > before - dec or event.value >= before:
                found.setdefault(key, []).append(
                    f"copy {event.copy}: {kind} value {event.value!r} at t={event.t} "
                    f"exceeds {before!r} - {dec!r}"
                )
            previous[key] = event.value
    return _copy_by_copy(found)


def check_message_topology(trace: SchemeTrace, N: int) -> list[str]:
    """Messages flow only from copy n to copy n - 1; copy N receives none.
    Every restart or task update above copy -1 sends, and nothing else does."""

    problems = []
    for event in trace.events:
        kind, copy = event.kind, event.copy
        sends_down = (kind == "restart" or kind == "task-update") and copy > -1
        if event.receiver != (copy - 1 if sends_down else None):
            problems.append(f"{kind} at t={event.t} on copy {copy}: receiver {event.receiver}")
        if kind == "arrival" and event.sender != copy + 1:
            problems.append(f"arrival at t={event.t} on copy {copy} from {event.sender}")
        if kind == "arrival" and copy == N:
            problems.append(f"copy {N} received a message at t={event.t}")
    return problems


def check_top_copy_never_restarts(trace: SchemeTrace, N: int) -> list[str]:
    return [
        f"copy {N} restarted at t={e.t}"
        for e in trace.of_kind("restart", N)
    ]


def _sends_by_copy(trace: SchemeTrace) -> dict[int, list[TraceEvent]]:
    sends: dict[int, list[TraceEvent]] = {}
    for event in trace.events:
        if event.receiver is not None:
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
    gap = _initial_value(trace) - f_star
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
        if event.kind == "arrival":
            begun[event.copy] = event.t  # a newer arrival restarts the clock
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
        if event.receiver is not None:
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
        if event.kind == "arrival":
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
