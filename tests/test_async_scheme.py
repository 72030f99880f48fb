"""Event-driven scheme: delay models, pauses, suspensions, and the lockstep limit."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restartfom.async_scheme import DelayModel, ServerQueue, run_async
from restartfom.errors import ParameterError
from restartfom.methods import MethodSpec
from restartfom.problems import (
    CountingProblem,
    make_least_squares_problem,
    make_norm_power_problem,
    make_piecewise_max_problem,
)
from restartfom.sync_scheme import Message, run_sync
from restartfom.traces import check_trace

ABS = make_norm_power_problem(1, 1.0, 1.0)


def limit_model() -> DelayModel:
    """Unit transit, negligible pause, one time unit per iteration."""

    return DelayModel(
        transit_kind="deterministic",
        tau_transit=1.0,
        pause_kind="deterministic",
        tau_pause=1e-6,
        iteration_cost="per-iteration",
    )


def dyadic_instance(seed: int):
    """A 1-d instance whose iterates stay exactly representable in floats."""

    rng = np.random.default_rng(seed)
    mu = float(rng.choice([0.5, 1.0, 2.0]))
    center = float(rng.integers(-2, 3))
    gap = float(rng.choice([2.5, 3.0, 4.0]))
    side = float(rng.choice([-1.0, 1.0]))
    problem = make_norm_power_problem(1, mu, 1.0, center=np.array([center]))
    x0 = np.array([center + side * gap / mu])
    return problem, x0


# ---------------------------------------------------------------------------
# DelayModel
# ---------------------------------------------------------------------------

def test_delay_model_rejects_unknown_kinds():
    with pytest.raises(ParameterError):
        DelayModel(transit_kind="carrier-pigeon")
    with pytest.raises(ParameterError):
        DelayModel(pause_kind="exponential")
    with pytest.raises(ParameterError):
        DelayModel(iteration_cost="free")


def test_delay_model_rejects_bad_taus():
    for kwargs in (
        {"tau_transit": 0.0},
        {"tau_pause": -1.0},
        {"service_time": 0.0},
    ):
        with pytest.raises(ParameterError):
            DelayModel(**kwargs)


def test_delay_model_sampling_ranges():
    rng = np.random.default_rng(0)
    det = DelayModel(tau_transit=2.0, tau_pause=3.0)
    assert det.sample_transit(rng) == 2.0
    assert det.sample_pause(rng) == 3.0

    uni = DelayModel(transit_kind="uniform", tau_transit=2.0,
                     pause_kind="uniform", tau_pause=3.0)
    for _ in range(500):
        t = uni.sample_transit(rng)
        p = uni.sample_pause(rng)
        assert 0.0 < t <= 2.0
        assert 0.0 < p <= 3.0


def test_delay_model_describe_fields():
    plain = DelayModel(tau_transit=1.5, tau_pause=0.5, seed=9)
    record = plain.describe(N=2)
    assert record["transit_kind"] == "deterministic"
    assert record["tau_transit"] == 1.5
    assert record["pause_kind"] == "deterministic"
    assert record["tau_pause"] == 0.5
    assert record["seed"] == 9
    assert record["iteration_cost"] == "per-call"
    assert record["effective_tau_transit"] == 1.5

    server = DelayModel(transit_kind="single-server", service_time=0.5)
    record = server.describe(N=3)
    assert record["service_time"] == 0.5
    assert record["effective_tau_transit"] == pytest.approx(2.5)
    assert server.effective_tau_transit(0) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# ServerQueue
# ---------------------------------------------------------------------------

def test_server_queue_fifo_and_dedup():
    q = ServerQueue(service_time=0.5)
    m_a = Message((1.0,), 1.0, sender=2)
    m_b = Message((2.0,), 2.0, sender=1)
    m_b2 = Message((3.0,), 1.5, sender=1)

    started = q.submit(m_a, 0.0)
    assert started == [(0.5, m_a)]
    assert q.submit(m_b, 0.0) == []       # server busy: queued
    assert q.submit(m_b2, 0.2) == []      # same sender: replaces m_b
    assert q.pending == [m_b2]

    started = q.service_done(0.5)
    assert started == [(1.0, m_b2)]
    assert q.service_done(1.0) == []      # queue drained


# ---------------------------------------------------------------------------
# run_async basics
# ---------------------------------------------------------------------------

def test_run_async_validation():
    x0 = np.array([4.0])
    with pytest.raises(ParameterError):
        run_async(ABS, "subgrad", 0.0, x0=x0)
    with pytest.raises(ParameterError):
        run_async(ABS, "subgrad", 0.5, x0=x0, N=-2)
    with pytest.raises(ParameterError):
        run_async(ABS, "subgrad", 0.5, x0=x0, budget=-1.0)
    with pytest.raises(ParameterError):
        run_async(ABS, "no-such-method", 0.5, x0=x0)


def test_early_return_within_eps():
    trace, summary = run_async(ABS, "subgrad", 5.0, x0=np.array([4.0]),
                               delay_model=DelayModel())
    assert [(ev.t, ev.copy, ev.kind, ev.value) for ev in trace.events] == [
        (0.0, -1, "init", 4.0)
    ]
    assert summary["time_to_eps"] == 0.0
    assert summary["oracle_calls_total"] == 1
    assert summary["complete"] is True


def test_budget_exhaustion_flags_incomplete():
    trace, summary = run_async(ABS, "subgrad", 1e-6, x0=np.array([4.0]),
                               delay_model=DelayModel(), budget=10.0)
    assert summary["complete"] is False
    assert summary["time_to_eps"] is None
    assert summary["sim_time"] == 10.0
    assert trace.events  # partial progress is still recorded


def test_degenerate_single_copy():
    trace, summary = run_async(ABS, "subgrad", 0.25, x0=np.array([4.0]),
                               N=-1, delay_model=DelayModel())
    assert summary["time_to_eps"] == 30.0
    assert summary["oracle_calls_total"] == 31
    assert summary["messages_total"] == 0
    assert summary["restarts_per_copy"] == {"-1": 0}
    assert sorted({ev.kind for ev in trace.events}) == [
        "init", "iterate", "task-update"
    ]
    updates = [(ev.t, ev.value) for ev in trace.of_kind("task-update", copy=-1)]
    assert updates[0] == (1.0, 3.875)
    assert updates[-1] == (29.0, 0.375)


def test_async_oracle_accounting_includes_discarded_calls():
    counting = CountingProblem(make_norm_power_problem(1, 1.0, 1.0))
    model = DelayModel(tau_transit=1.5, tau_pause=0.25)
    _, summary = run_async(counting, "subgrad", 0.25, x0=np.array([4.0]),
                           N=2, delay_model=model)
    assert summary["oracle_calls_total"] == counting.evaluate_calls == 26


# ---------------------------------------------------------------------------
# Lockstep limit: unit transit, negligible pause, unit iterations
# ---------------------------------------------------------------------------

def test_limit_configuration_matches_lockstep():
    x0 = np.array([3.0])
    sync_trace, sync_summary = run_sync(ABS, "subgrad", 0.5, x0=x0)
    async_trace, async_summary = run_async(ABS, "subgrad", 0.5, x0=x0,
                                           delay_model=limit_model())
    assert sync_summary["N"] == async_summary["N"]
    for n in sync_trace.copies():
        assert sync_trace.restart_points(n) == async_trace.restart_points(n)
    assert sync_summary["time_to_eps"] == 3.0
    assert async_summary["time_to_eps"] == 3.0


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_dyadic_limit_matches_lockstep(seed):
    problem, x0 = dyadic_instance(seed)
    sync_trace, _ = run_sync(problem, "subgrad", 0.25, x0=x0)
    async_trace, _ = run_async(problem, "subgrad", 0.25, x0=x0,
                               delay_model=limit_model())
    for n in sync_trace.copies():
        assert sync_trace.restart_points(n) == async_trace.restart_points(n)


# ---------------------------------------------------------------------------
# Pauses, suspensions, and restart sources
# ---------------------------------------------------------------------------

def test_suspension_resume_and_mid_epoch_restart():
    # transit 1.5 lands deliveries mid-call; pause 0.25 is short enough that
    # the run both resumes a suspended call and discards one for an inbox
    # restart before the top copy finishes.
    model = DelayModel(tau_transit=1.5, tau_pause=0.25)
    trace, summary = run_async(ABS, "subgrad", 0.25, x0=np.array([4.0]),
                               N=2, delay_model=model)

    assert summary["time_to_eps"] == 4.0
    assert summary["oracle_calls_total"] == 26
    assert summary["messages_total"] == 11
    assert summary["restarts_per_copy"] == {"-1": 4, "0": 4, "1": 4, "2": 0}

    # The suspension stretches copy 1's third iteration: paused 2.5..2.75,
    # so the call started at 2.0 lands at 3.25 instead of 3.0.
    assert [ev.t for ev in trace.of_kind("iterate", copy=1)] == [1.0, 2.0, 3.25]
    pauses = [(ev.t, ev.kind, ev.value) for ev in trace.events
              if ev.copy == 1 and ev.kind in ("arrival", "pause-end")]
    assert pauses == [
        (2.5, "arrival", 3.0),
        (2.75, "pause-end", 3.0),
        (3.5, "arrival", 2.0),
        (3.75, "pause-end", 2.0),
    ]
    # First pause resumed (candidate 3.0 did not fulfill); the second ended
    # with an inbox restart that discarded the in-flight call.
    assert [(ev.t, ev.value, ev.source)
            for ev in trace.of_kind("restart", copy=1)] == [
        (1.0, 3.5, "own"),
        (2.0, 3.0, "own"),
        (3.25, 2.5, "own"),
        (3.75, 2.0, "inbox"),
    ]
    assert check_trace(trace, eps=0.25, N=2, f_star=0.0,
                       tau_pause=0.25, tau_transit=1.5) == []


def test_coincident_arrival_tie_keeps_own_point():
    # With unit transit the neighbor's message lands at the same instant the
    # copy fulfills its own task; equal values resolve in favor of the copy's
    # own point after a comparison pause.
    model = DelayModel(tau_transit=1.0, tau_pause=0.25)
    trace, summary = run_async(ABS, "subgrad", 0.25, x0=np.array([4.0]),
                               N=2, delay_model=model)

    assert summary["time_to_eps"] == 4.0
    assert summary["oracle_calls_total"] == 23
    assert summary["messages_total"] == 9
    assert summary["restarts_per_copy"] == {"-1": 3, "0": 3, "1": 3, "2": 0}
    assert [(ev.t, ev.value, ev.source)
            for ev in trace.of_kind("restart", copy=1)] == [
        (1.0, 3.5, "own"),
        (2.25, 3.0, "own"),     # tie with the coincident arrival
        (3.25, 2.0, "inbox"),
    ]
    pauses = [(ev.t, ev.kind, ev.value) for ev in trace.events
              if ev.copy == 1 and ev.kind in ("arrival", "pause-end")]
    assert pauses == [
        (2.0, "arrival", 3.0),
        (2.25, "pause-end", 3.0),
        (3.0, "arrival", 2.0),
        (3.25, "pause-end", 2.0),
    ]
    assert check_trace(trace, eps=0.25, N=2, f_star=0.0,
                       tau_pause=0.25, tau_transit=1.0) == []


def test_pause_overwrite_restarts_the_clock():
    # A long pause lets a second, better message land before the first pause
    # would have ended; the new candidate replaces the old one and the pause
    # starts over, so no pause-end fires before the run halts.
    model = DelayModel(tau_transit=1.0, tau_pause=5.0)
    trace, summary = run_async(ABS, "subgrad", 0.25, x0=np.array([4.0]),
                               N=2, delay_model=model)

    assert summary["time_to_eps"] == 4.0
    begins = [(ev.t, ev.copy, ev.value) for ev in trace.of_kind("arrival")]
    assert begins == [
        (2.0, 1, 3.0),
        (2.0, 0, 3.5),
        (2.0, -1, 3.75),
        (3.0, 1, 2.0),          # overwrite: candidate improves by 2**(n+1)*eps
    ]
    assert trace.of_kind("pause-end") == []
    assert [(ev.t, ev.copy, ev.value, ev.source)
            for ev in trace.of_kind("restart")] == [
        (1.0, 1, 3.5, "own"),
        (1.0, 0, 3.75, "own"),
        (1.0, -1, 3.875, "own"),
    ]
    assert check_trace(trace, eps=0.25, N=2, f_star=0.0,
                       tau_pause=5.0, tau_transit=1.0) == []


def test_top_copy_never_pauses():
    for tau in (1.0, 1.5):
        model = DelayModel(tau_transit=tau, tau_pause=0.25)
        trace, summary = run_async(ABS, "subgrad", 0.25, x0=np.array([4.0]),
                                   N=2, delay_model=model)
        assert all(ev.copy != summary["N"] for ev in trace.of_kind("arrival"))
        assert all(ev.copy != summary["N"] for ev in trace.of_kind("pause-end"))
        assert trace.of_kind("restart", copy=summary["N"]) == []


# ---------------------------------------------------------------------------
# Shared-server and randomized delays
# ---------------------------------------------------------------------------

def test_single_server_delivery():
    model = DelayModel(transit_kind="single-server", service_time=0.5,
                       pause_kind="deterministic", tau_pause=1e-6)
    trace, summary = run_async(ABS, "subgrad", 0.25, x0=np.array([4.0]),
                               N=3, delay_model=model)

    assert summary["time_to_eps"] == 2.0
    assert summary["oracle_calls_total"] == 17
    assert summary["delay_model"]["effective_tau_transit"] == pytest.approx(2.5)
    assert summary["restarts_per_copy"] == {
        "-1": 1, "0": 1, "1": 1, "2": 2, "3": 0
    }
    # Five sends go out but the server only lands one of them before the halt.
    sends = [ev for ev in trace.events if ev.receiver is not None]
    assert len(sends) == summary["messages_total"] == 5
    assert {ev.kind for ev in sends} == {"restart", "task-update"}
    assert [(ev.t, ev.copy, ev.value) for ev in trace.of_kind("arrival")] == [
        (1.5, 2, 2.0)
    ]
    assert check_trace(
        trace, eps=0.25, N=3, f_star=0.0, tau_pause=1e-6,
        tau_transit=summary["delay_model"]["effective_tau_transit"],
    ) == []


def uniform_run(seed: int):
    problem = make_norm_power_problem(3, 1.0, 1.0)
    x0 = problem.point_at_gap(9.0, rng=np.random.default_rng(5))
    model = DelayModel(transit_kind="uniform", tau_transit=2.0,
                       pause_kind="uniform", tau_pause=3.0, seed=seed)
    return run_async(problem, "subgrad", 0.25, x0=x0, delay_model=model)


def test_uniform_delays_respect_invariants():
    trace, summary = uniform_run(11)
    assert summary["complete"] is True
    assert summary["time_to_eps"] == 9.0
    assert check_trace(trace, eps=0.25, N=summary["N"], f_star=0.0,
                       tau_pause=3.0, tau_transit=2.0) == []


def test_uniform_arrivals_are_fifo_per_receiver():
    trace, _ = uniform_run(11)
    by_receiver: dict[int, list] = {}
    for ev in trace.of_kind("arrival"):
        by_receiver.setdefault(ev.copy, []).append(ev)
    assert by_receiver
    for events in by_receiver.values():
        times = [ev.t for ev in events]
        values = [ev.value for ev in events]
        assert times == sorted(times)
        # Each receiver has a single upstream sender, so the candidate
        # stream it sees must improve monotonically.
        assert values == sorted(values, reverse=True)


@pytest.mark.parametrize("seed", [11, 42])
def test_each_restart_is_logged_once(seed):
    trace, summary = uniform_run(seed)
    assert {ev.source for ev in trace.of_kind("restart")} == {"own", "inbox"}
    assert not trace.of_kind("epoch-begin")
    assert {str(n): len(trace.of_kind("restart", copy=n)) for n in trace.copies()} \
        == summary["restarts_per_copy"]


def test_seeded_runs_reproduce_exactly():
    trace_a, summary_a = uniform_run(42)
    trace_b, summary_b = uniform_run(42)
    trace_c, _ = uniform_run(43)
    assert trace_a == trace_b
    assert summary_a == summary_b
    assert trace_a != trace_c


DELAY_CASES = {
    "norm-power-d1-subgrad": (lambda: make_norm_power_problem(3, 1.0, 1.0), MethodSpec("subgrad")),
    "piecewise-max-subgrad": (lambda: make_piecewise_max_problem(6, 18, seed=1),
                              MethodSpec("subgrad")),
    "norm-power-d1.5-univ": (lambda: make_norm_power_problem(3, 1.0, 1.5),
                             MethodSpec("univ", L0=1.0)),
    "least-squares-accel": (lambda: make_least_squares_problem(5, 8, seed=2),
                            MethodSpec("accel")),
}
TAUS = st.floats(0.1, 3.0)


@settings(max_examples=120, deadline=None)
@given(case=st.sampled_from(sorted(DELAY_CASES)),
       eps=st.sampled_from([0.5, 0.125, 2.0 ** -6]),
       model=st.builds(DelayModel,
                       transit_kind=st.sampled_from(["deterministic", "uniform", "single-server"]),
                       tau_transit=TAUS,
                       pause_kind=st.sampled_from(["deterministic", "uniform"]),
                       tau_pause=TAUS,
                       service_time=TAUS,
                       seed=st.integers(0, 2 ** 32 - 1),
                       iteration_cost=st.sampled_from(["per-call", "per-iteration"])))
def test_every_delay_model_keeps_the_invariants_and_reproduces(case, eps, model):
    factory, spec = DELAY_CASES[case]
    problem = factory()
    x0 = problem.point_at_gap(20.0, rng=np.random.default_rng(0))

    def run():
        return run_async(problem, spec, eps, x0=x0, delay_model=model, budget=2000.0)

    trace, summary = run()
    N = summary["N"]
    assert check_trace(trace, eps=eps, N=N, f_star=problem.metadata.f_star,
                       tau_pause=model.tau_pause,
                       tau_transit=model.effective_tau_transit(N)) == []
    assert run() == (trace, summary)


# ---------------------------------------------------------------------------
# Metadata-free operation and serialization
# ---------------------------------------------------------------------------

class _WithoutMetadata:
    def __init__(self, inner):
        self._inner = inner
        self.metadata = None

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_metadata_free_runs_until_events_drain():
    problem = _WithoutMetadata(make_norm_power_problem(1, 1.0, 1.0))
    trace, summary = run_async(problem, "subgrad", 0.5, x0=np.array([2.0]),
                               N=1, delay_model=DelayModel(tau_pause=1e-6),
                               budget=200.0)
    assert summary["complete"] is False
    assert summary["time_to_eps"] is None
    assert summary["sim_time"] < 200.0
    # Every copy reaches the minimizer exactly and goes quiet.
    last_value = {}
    for ev in trace.of_kind("iterate"):
        last_value[ev.copy] = ev.value
    assert set(last_value.values()) == {0.0}


def test_an_arrival_at_an_idle_copy_is_logged_and_starts_no_pause():
    def run():
        return run_async(_WithoutMetadata(make_norm_power_problem(1, 1.0, 1.0)), "subgrad", 0.25,
                         x0=np.array([1.0]), budget=10.0,
                         delay_model=DelayModel(tau_transit=1.5))

    trace, summary = run()
    # Copy 1 restarts at the minimizer at t = 2 and goes idle; copy 2's
    # message reaches it at t = 2.5.
    assert [(ev.t, ev.value) for ev in trace.of_kind("restart", copy=1)][-1] == (2.0, 0.0)
    assert [(ev.t, ev.sender) for ev in trace.of_kind("arrival", copy=1)] == [(2.5, 2)]
    assert trace.of_kind("pause-end", copy=1) == []
    assert check_trace(trace, eps=0.25, N=summary["N"], f_star=0.0) == []
    assert run()[0] == trace


def test_async_trace_jsonl_round_trip(tmp_path):
    model = DelayModel(tau_transit=1.5, tau_pause=0.25)
    trace, summary = run_async(ABS, "subgrad", 0.25, x0=np.array([4.0]),
                               N=2, delay_model=model)
    path = tmp_path / "async.jsonl"
    trace.write_jsonl(path, summary=summary)
    loaded, loaded_summary = type(trace).read_jsonl(path)
    assert loaded == trace
    assert loaded_summary == summary


@pytest.mark.parametrize("method_kind", [
    MethodSpec("accel"),
    MethodSpec("univ", L0=0.25),
], ids=["accel", "univ"])
def test_smooth_methods_run_clean(method_kind):
    problem = make_norm_power_problem(2, 1.0, 2.0)
    x0 = problem.point_at_gap(4.0, rng=np.random.default_rng(2))
    model = DelayModel(tau_transit=1.0, tau_pause=1e-6)
    trace, summary = run_async(problem, method_kind, 0.25, x0=x0,
                               delay_model=model)
    assert summary["complete"] is True
    assert summary["time_to_eps"] is not None
    assert check_trace(trace, eps=0.25, N=summary["N"], f_star=0.0,
                       tau_pause=1e-6, tau_transit=1.0) == []


@pytest.mark.parametrize("budget", [100_000.0, 3.0], ids=["solved", "out-of-budget"])
def test_a_finished_run_leaves_its_heap_empty_and_no_reference_cycle(budget):
    import gc
    import weakref

    from restartfom.async_scheme import _AsyncEngine

    problem = make_norm_power_problem(2, 1.0, 1.0)
    engine = _AsyncEngine(problem, "subgrad", 0.25, None, budget, DelayModel())
    engine.spin_up(np.array([3.0, -4.0]))
    engine.run()
    assert engine.heap == []
    alive = weakref.ref(engine)
    gc.disable()
    try:
        del engine  # freed by reference counting alone
        assert alive() is None
    finally:
        gc.enable()
