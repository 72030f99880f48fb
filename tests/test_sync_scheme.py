"""Lockstep/sequential engine semantics, frozen reference traces, checkers."""

import numpy as np
import pytest

from restartfom.async_scheme import run_async
from restartfom.bounds import bound_sync_theorem, k_accel, k_subgrad
from restartfom.errors import ParameterError
from restartfom.methods import MethodSpec
from restartfom.problems import (
    CountingProblem,
    make_least_squares_problem,
    make_norm_power_problem,
)
from restartfom.sync_scheme import LadderCopy, run_sync
from restartfom.traces import (
    SchemeTrace,
    TraceEvent,
    check_contiguous_pause_decrements,
    check_lockstep_iterates,
    check_message_topology,
    check_near_optimal_send_cap,
    check_pause_bounds,
    check_restart_decrements,
    check_send_counts,
    check_top_copy_never_restarts,
    check_trace,
    check_transit_bounds,
)


def abs_problem():
    return make_norm_power_problem(1, 1.0, 1.0)  # f = |x|


class _WithoutMetadata:
    """View of a problem that hides its metadata from the engine."""

    def __init__(self, inner):
        self._inner = inner
        self.metadata = None

    def __getattr__(self, name):
        return getattr(self._inner, name)


# ---------------------------------------------------------------------------
# Task plumbing
# ---------------------------------------------------------------------------


def test_fulfills_boundary():
    copy = LadderCopy(0, reference=10.0, decrement=1.0, method=None)
    assert copy.fulfills(9.0)
    assert not copy.fulfills(9.0001)
    assert copy.fulfills(0.0)


def test_fulfills_needs_strict_progress_below_the_float_spacing():
    # 1e20 - 0.25 rounds back to 1e20: the reference itself does not fulfill.
    copy = LadderCopy(0, reference=1e20, decrement=0.25, method=None)
    assert copy.reference - copy.decrement == copy.reference
    assert not copy.fulfills(1e20)
    assert copy.fulfills(np.nextafter(1e20, 0.0))


@pytest.mark.parametrize("run", [run_sync, run_async])
def test_a_decrement_below_the_float_spacing_sends_nothing(run):
    # At x0 = 1e20 no step moves f = |x| by a representable amount.
    trace, summary = run(abs_problem(), "subgrad", 0.25, x0=np.array([1e20]), budget=20)
    assert summary["messages_total"] == 0
    assert check_trace(trace, eps=0.25, N=summary["N"], f_star=0.0) == []


@pytest.mark.parametrize("run", [run_sync, run_async])
def test_eps_whose_bottom_decrement_underflows_is_refused(run):
    # The smallest subnormal is positive, but eps / 2 rounds to 0.
    with pytest.raises(ParameterError, match="bottom rung"):
        run(abs_problem(), "subgrad", 5e-324, x0=np.array([1.0]), N=0)


def test_run_sync_validation():
    p = abs_problem()
    with pytest.raises(ParameterError):
        run_sync(p, "subgrad", 0.0, x0=np.array([1.0]))
    with pytest.raises(ParameterError):
        run_sync(p, "subgrad", 0.5, x0=np.array([1.0]), N=-2)
    with pytest.raises(ParameterError):
        run_sync(p, "subgrad", 0.5, x0=np.array([1.0]), mode="parallel")
    with pytest.raises(ParameterError):
        run_sync(p, "subgrad", 0.5, x0=np.array([1.0]), budget=-1)


# ---------------------------------------------------------------------------
# Reference behaviors (values derived by hand for f = |x|)
# ---------------------------------------------------------------------------


def test_early_return_when_gap_already_within_eps():
    p = CountingProblem(abs_problem())
    trace, summary = run_sync(p, "subgrad", 1.0, x0=np.array([1.0]), N=0)
    assert summary["periods"] == 0
    assert summary["time_to_eps"] == 0.0
    assert summary["oracle_calls_total"] == p.evaluate_calls == 1
    assert [e.kind for e in trace.events] == ["init"]


REFERENCE_EVENTS = [
    (0.0, 0, "init", 3.0), (0.0, -1, "init", 3.0),
    (1.0, 0, "iterate", 2.5), (1.0, -1, "iterate", 2.75),
    (2.0, 0, "task-update", 2.5), (2.0, 0, "iterate", 2.0),
    (2.0, -1, "restart", 2.75), (2.0, -1, "iterate", 2.5),
    (3.0, 0, "task-update", 2.0), (3.0, 0, "iterate", 1.5),
    (3.0, -1, "restart", 2.5), (3.0, -1, "iterate", 2.25),
    (4.0, 0, "task-update", 1.5), (4.0, 0, "iterate", 1.0),
    (4.0, -1, "restart", 2.0), (4.0, -1, "iterate", 1.75),
    (5.0, 0, "task-update", 1.0), (5.0, 0, "iterate", 0.5),
    (5.0, -1, "restart", 1.5), (5.0, -1, "iterate", 1.25),
]


def sends(trace, copy=None):
    """The events that sent a message: those that name a receiver."""

    return [e for e in trace.events
            if e.receiver is not None and (copy is None or e.copy == copy)]


def reference_run():
    return run_sync(abs_problem(), "subgrad", 0.5, x0=np.array([3.0]), N=0)


def test_reference_trace_event_for_event():
    # Hand-derived: copy 0 steps by 0.5 and hands fulfilling points down;
    # copy -1 restarts once at its own point, then three times from its inbox.
    trace, summary = reference_run()
    assert [(e.t, e.copy, e.kind, e.value) for e in trace.events] == REFERENCE_EVENTS
    assert summary["periods"] == 5
    assert summary["time_to_eps"] == 5.0
    assert summary["oracle_calls_total"] == 15
    assert summary["restarts_per_copy"] == {"-1": 4, "0": 0}
    assert summary["messages_total"] == 4
    assert summary["n_bar"] == 1
    assert summary["complete"]


def test_reference_trace_details():
    trace, _ = reference_run()
    restarts = trace.of_kind("restart", -1)
    assert [e.source for e in restarts] == ["own", "inbox", "inbox", "inbox"]
    assert trace.restart_points(-1) == [(2.75,), (2.5,), (2.0,), (1.5,)]
    updates = trace.of_kind("task-update", 0)
    assert sends(trace) == updates
    assert [e.point for e in updates] == [(2.5,), (2.0,), (1.5,), (1.0,)]
    assert all(e.receiver == -1 for e in updates)
    assert all(e.receiver is None for e in restarts)
    assert check_trace(trace, eps=0.5, N=0, f_star=0.0) == []


def test_reference_oracle_accounting():
    p = CountingProblem(abs_problem())
    _, summary = run_sync(p, "subgrad", 0.5, x0=np.array([3.0]), N=0)
    # Init twice, one step per copy-period, plus one priming call for each
    # of the three inbox restarts.
    assert p.evaluate_calls == summary["oracle_calls_total"] == 15


def test_inbox_restart_follows_send_by_one_period():
    trace, _ = reference_run()
    sent = {(e.value, e.t) for e in sends(trace)}
    for event in trace.of_kind("restart"):
        if event.source == "inbox":
            assert (event.value, event.t - 1.0) in sent


def test_degenerate_single_copy_updates_tasks_without_restarting():
    trace, summary = run_sync(abs_problem(), "subgrad", 0.5, x0=np.array([3.0]), N=-1)
    updates = trace.of_kind("task-update", -1)
    assert [e.value for e in updates] == [2.75, 2.5, 2.25, 2.0, 1.75, 1.5, 1.25, 1.0, 0.75]
    assert [e.t for e in updates] == [float(t) for t in range(2, 11)]
    assert summary["restarts_per_copy"] == {"-1": 0}
    assert sends(trace) == []
    assert [e.point for e in updates] == [(e.value,) for e in updates]
    assert summary["time_to_eps"] == 10.0
    assert check_trace(trace, eps=0.5, N=-1, f_star=0.0) == []


def test_three_rung_run_meets_theorem_bound():
    p = abs_problem()
    trace, summary = run_sync(p, "subgrad", 0.25, x0=np.array([4.0]), N=2)
    report = bound_sync_theorem(
        p.metadata, 4.0, 0.25, 2, lambda delta, e: k_subgrad(1.0, delta, e)
    )
    assert summary["time_to_eps"] == 4.0
    assert summary["time_to_eps"] <= report.total
    assert summary["oracle_calls_total"] == 26
    assert summary["restarts_per_copy"] == {"-1": 3, "0": 3, "1": 3, "2": 0}
    assert check_trace(trace, eps=0.25, N=2, f_star=0.0) == []
    assert check_lockstep_iterates(trace, summary["periods"]) == []


def test_top_copy_consecutive_sends_decrease_by_decrement():
    trace, _ = reference_run()
    values = [e.value for e in sends(trace, 0)]
    assert all(b <= a - 0.5 for a, b in zip(values, values[1:]))


def test_budget_exhaustion_flags_incomplete():
    _, summary = run_sync(abs_problem(), "subgrad", 0.25, x0=np.array([4.0]),
                          N=2, budget=3)
    assert not summary["complete"]
    assert summary["periods"] == 3
    assert summary["time_to_eps"] is None


def test_halt_is_prompt_on_dyadic_instance():
    trace, summary = run_sync(abs_problem(), "subgrad", 1.0, x0=np.array([3.0]), N=0)
    assert summary["time_to_eps"] == 2.0
    assert [e.value for e in sends(trace, 0)] == [2.0]


def test_metadata_free_run_goes_to_budget_and_keeps_sending():
    # Without f_star the engine cannot halt; the top copy walks all the way
    # down, producing the send tail that makes the near-optimal cap strict.
    p = _WithoutMetadata(abs_problem())
    trace, summary = run_sync(p, "subgrad", 0.5, x0=np.array([3.0]), N=0, budget=12)
    assert not summary["complete"]
    assert summary["time_to_eps"] is None
    assert [e.value for e in sends(trace, 0)] == [2.5, 2.0, 1.5, 1.0, 0.5, 0.0]
    # First send strictly below 0 + 2*(2**0)*0.5 = 1.0 is 0.5; one more after.
    assert check_near_optimal_send_cap(trace, 0.0, 0.5) == []
    assert check_trace(trace, eps=0.5, N=0, f_star=0.0) == []


def test_sequential_mode_reads_messages_in_the_same_sweep():
    trace, summary = run_sync(abs_problem(), "subgrad", 0.5, x0=np.array([3.0]),
                              N=0, mode="sequential")
    assert summary["scheme"] == "sync-sequential"
    assert summary["periods"] == 9  # single-worker slots
    assert summary["time_to_eps"] == 9.0
    restarts = trace.of_kind("restart", -1)
    assert [(e.t, e.value, e.source) for e in restarts] == [
        (4.0, 2.5, "inbox"), (6.0, 2.0, "inbox"), (8.0, 1.5, "inbox"),
    ]
    assert check_trace(trace, eps=0.5, N=0, f_star=0.0) == []


def test_determinism_bitwise():
    a_trace, a_summary = run_sync(abs_problem(), "subgrad", 0.25,
                                  x0=np.array([4.0]), N=2)
    b_trace, b_summary = run_sync(abs_problem(), "subgrad", 0.25,
                                  x0=np.array([4.0]), N=2)
    assert a_trace == b_trace
    assert a_summary == b_summary


def test_accel_run_meets_theorem_bound():
    ls = make_least_squares_problem(3, 5, seed=7)
    x0 = ls.point_at_gap(4.0, rng=np.random.default_rng(7))
    trace, summary = run_sync(ls, "accel", 0.125, x0=x0)
    report = bound_sync_theorem(
        ls.metadata, float(ls.value(x0)), 0.125, summary["N"],
        lambda delta, e: k_accel(ls.metadata.L, delta, e),
    )
    assert summary["time_to_eps"] == 4.0
    assert summary["time_to_eps"] <= report.total
    assert check_trace(trace, eps=0.125, N=summary["N"], f_star=0.0) == []


def test_univ_run_through_scheme():
    hp = make_norm_power_problem(2, 2.0 / 3.0, 1.5)
    x0 = hp.point_at_gap(2.0, rng=np.random.default_rng(8))
    p = CountingProblem(hp)
    trace, summary = run_sync(p, MethodSpec("univ", L0=0.25), 0.125, x0=x0)
    assert summary["time_to_eps"] == 2.0
    assert summary["oracle_calls_total"] == p.evaluate_calls == 63
    assert check_trace(trace, eps=0.125, N=summary["N"], f_star=0.0) == []


def test_jsonl_round_trip(tmp_path):
    trace, summary = reference_run()
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path, summary)
    back, summary_back = SchemeTrace.read_jsonl(path)
    assert back == trace
    assert summary_back == summary


# ---------------------------------------------------------------------------
# Checker fault injection
# ---------------------------------------------------------------------------


def _ev(t, copy, kind, value, **kw):
    return TraceEvent(float(t), copy, kind, float(value), **kw)


def test_checker_flags_small_restart_decrement():
    trace = SchemeTrace([
        _ev(0, -1, "init", 3.0),
        _ev(1, -1, "restart", 2.9),  # needs <= 3.0 - 0.5
    ])
    assert check_restart_decrements(trace, 1.0) != []


def test_checker_flags_a_restart_without_progress():
    # 1e20 - 0.5 rounds back to 1e20, so only the strict test sees the stall.
    trace = SchemeTrace([
        _ev(0, -1, "init", 1e20),
        _ev(1, -1, "restart", 1e20),
    ])
    assert check_restart_decrements(trace, 1.0) == [
        "copy -1: restart value 1e+20 at t=1.0 exceeds 1e+20 - 0.5"]


def test_checker_flags_bad_topology():
    trace = SchemeTrace([
        _ev(0, 1, "init", 3.0),
        _ev(1, 1, "restart", 2.0, receiver=1),
        _ev(2, 0, "arrival", 2.0, sender=2),
    ])
    assert len(check_message_topology(trace, 1)) == 2


@pytest.mark.parametrize("event", [
    pytest.param(_ev(1, 0, "restart", 2.0, source="own"), id="restart-that-did-not-send"),
    pytest.param(_ev(1, 1, "task-update", 2.0), id="task-update-that-did-not-send"),
    pytest.param(_ev(1, -1, "restart", 2.0, receiver=-2, source="own"),
                 id="copy-minus-one-sent"),
    pytest.param(_ev(1, -1, "task-update", 2.0, receiver=-2),
                 id="copy-minus-one-task-update-sent"),
    pytest.param(_ev(1, 0, "iterate", 2.0, receiver=-1), id="iterate-sent"),
])
def test_checker_flags_a_send_the_action_does_not_make(event):
    assert len(check_message_topology(SchemeTrace([_ev(0, 1, "init", 3.0), event]), 1)) == 1


def test_checker_flags_top_copy_restart():
    trace = SchemeTrace([_ev(1, 2, "restart", 1.0)])
    assert check_top_copy_never_restarts(trace, 2) != []


def test_checker_flags_chatter_after_near_optimal_send():
    trace = SchemeTrace([
        _ev(0, 0, "init", 3.0),
        _ev(1, 0, "task-update", 0.9, receiver=-1),  # strictly below 0 + 2*1*0.5
        _ev(2, 0, "task-update", 0.3, receiver=-1),
        _ev(3, 0, "task-update", 0.1, receiver=-1),
    ])
    assert check_near_optimal_send_cap(trace, 0.0, 0.5) != []


def test_checker_flags_send_count_overflow():
    events = [_ev(0, 0, "init", 1.0)]
    events += [_ev(t, 0, "restart", 1.0 - 0.1 * t, receiver=-1) for t in range(1, 4)]
    # gap 1.0, decrement 0.5 -> cap 2 sends; trace has 3.
    assert check_send_counts(SchemeTrace(events), 0.0, 0.5) != []


def test_checker_flags_missing_lockstep_iterate():
    trace = SchemeTrace([
        _ev(0, 0, "init", 3.0),
        _ev(1, 0, "iterate", 2.0),
    ])
    assert check_lockstep_iterates(trace, 2) != []


def test_checker_flags_pause_and_transit_violations():
    trace = SchemeTrace([
        _ev(0, 0, "init", 3.0),
        _ev(1.0, 0, "arrival", 2.0, sender=1),  # no matching send
        _ev(3.5, 0, "pause-end", 2.0),  # longer than tau_pause = 2
        _ev(4.0, 0, "arrival", 1.5, sender=1),  # no matching send
    ])
    assert check_pause_bounds(trace, 2.0) != []
    assert check_transit_bounds(trace, 1.0) != []


def test_checker_flags_late_transit():
    trace = SchemeTrace([
        _ev(1.0, 1, "restart", 2.0, receiver=0),
        _ev(4.0, 0, "arrival", 2.0, sender=1),
    ])
    assert check_transit_bounds(trace, 1.0) != []
    assert check_transit_bounds(trace, 3.0) == []


def test_checker_flags_weak_overwrite_decrement():
    # Sender is copy 1 (decrement 2^1 * 0.5 = 1): the overwrite at t=2 must
    # undercut 2.0 by at least 1.
    trace = SchemeTrace([
        _ev(1.0, 0, "arrival", 2.0, sender=1),
        _ev(2.0, 0, "arrival", 1.5, sender=1),
        _ev(2.5, 0, "pause-end", 1.5),
    ])
    assert check_contiguous_pause_decrements(trace, 0.5) != []
    good = SchemeTrace([
        _ev(1.0, 0, "arrival", 2.0, sender=1),
        _ev(2.0, 0, "arrival", 1.0, sender=1),
        _ev(2.5, 0, "pause-end", 1.0),
    ])
    assert check_contiguous_pause_decrements(good, 0.5) == []


@pytest.mark.parametrize("N, eps", [(1024, 0.5), (2000, 0.5), (1023, 4.0)])
def test_a_top_rung_beyond_the_float_range_is_refused(N, eps):
    problem = make_norm_power_problem(1, 1.0, 1.0)
    with pytest.raises(ParameterError, match="float range"):
        run_sync(problem, "subgrad", eps, x0=np.array([3.0]), N=N)
