"""The numpy invariant checkers against the event-loop reference, on drawn
traces, on engine runs read back from disk, and on copies off the ladder."""

import base64
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_checkers as reference
from restartfom import traces
from restartfom.async_scheme import DelayModel, run_async
from restartfom.bounds import EPS_MIN
from restartfom.errors import ConfigError
from restartfom.problems import make_norm_power_problem, make_piecewise_max_problem
from restartfom.sync_scheme import run_sync
from restartfom.traces import EVENT_KINDS, SchemeTrace, TraceEvent, check_trace

# Few distinct times and values, so that ties, repeated keys and zero-length
# pauses and transits come up; arbitrary finite floats reach overflow.
TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]) | st.floats(0.0, 10.0)
VALUES = (st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 4.0, 1.7976931348623157e308,
                           -1.7976931348623157e308])
          | st.floats(allow_nan=False, allow_infinity=False))
EPS = st.sampled_from([EPS_MIN, 2 * EPS_MIN, 1e-300, 0.25, 1.0]) | st.floats(EPS_MIN, 8.0)
F_STAR = st.sampled_from([0.0, -1.0, 1.0, 3.0, -1e308]) | st.floats(-10.0, 10.0)
TAUS = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 5.0)


@st.composite
def scenarios(draw):
    N = draw(st.integers(-1, 5))
    copies = st.integers(-1, N)
    ids = st.none() | st.integers(-2, N + 2)
    events = draw(st.lists(st.builds(
        TraceEvent, t=TIMES, copy=copies, kind=st.sampled_from(sorted(EVENT_KINDS)),
        value=VALUES, point=st.none() | st.just((1.0, -2.0)), sender=ids, receiver=ids,
        source=st.none() | st.sampled_from(["own", "inbox"])), max_size=30))
    eps, f_star = draw(EPS), draw(F_STAR)
    for _ in range(draw(st.integers(0, 6)) if N >= 0 else 0):  # sends and their arrivals
        copy = draw(st.integers(0, N))
        value = draw(VALUES | st.just(f_star + 2.0 * 2.0 ** copy * eps))  # the near-optimal edge
        send = draw(st.integers(0, len(events)))
        events.insert(send, TraceEvent(draw(TIMES), copy, draw(st.sampled_from(
            ["restart", "task-update"])), value, receiver=copy - 1))
        events.insert(draw(st.integers(send + 1, len(events))), TraceEvent(
            draw(TIMES), copy - 1, "arrival", value, sender=copy))
    periods = draw(st.integers(-1, 4))
    if draw(st.booleans()):  # a lockstep grid of iterates, in period order or shuffled
        grid = [TraceEvent(float(p), copy, "iterate", draw(VALUES))
                for p in range(1, periods + 1) for copy in range(-1, N + 1)]
        events += draw(st.permutations(grid)) if draw(st.booleans()) else grid
    if draw(st.booleans()):
        events.insert(0, TraceEvent(0.0, draw(copies), "init", draw(VALUES)))
    return events, dict(eps=eps, N=N, f_star=f_star, tau_pause=draw(TAUS),
                        tau_transit=draw(TAUS), periods=periods)


def _outcome(checker, *args, **kwargs):
    try:
        return checker(*args, **kwargs)
    except Exception as exc:  # the reference's errors must be raised alike
        return type(exc), str(exc)


def _calls(case):
    eps, N, f_star = case["eps"], case["N"], case["f_star"]
    tau_pause, tau_transit = case["tau_pause"], case["tau_transit"]
    full = dict(eps=eps, N=N, f_star=f_star, tau_pause=tau_pause, tau_transit=tau_transit)
    return [
        ("check_restart_decrements", (eps,), {}),
        ("check_message_topology", (N,), {}),
        ("check_top_copy_never_restarts", (N,), {}),
        ("check_near_optimal_send_cap", (f_star, eps), {}),
        ("check_send_counts", (f_star, eps), {}),
        ("check_lockstep_iterates", (case["periods"],), {}),
        ("check_pause_bounds", (tau_pause,), {}),
        ("check_transit_bounds", (tau_transit,), {}),
        ("check_contiguous_pause_decrements", (eps,), {}),
        ("check_trace", (), dict(eps=eps, N=N)),
        ("check_trace", (), full),
    ]


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios())
def test_numpy_checkers_match_the_loop_reference(tmp_path_factory, scenario):
    events, case = scenario
    path = tmp_path_factory.mktemp("drawn") / "trace.jsonl"
    SchemeTrace(events).write_jsonl(path)
    read, _ = SchemeTrace.read_jsonl(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name, args, kwargs in _calls(case):
            expected = _outcome(getattr(reference, name), SchemeTrace(events), *args, **kwargs)
            for trace in (SchemeTrace(events), read):
                assert _outcome(getattr(traces, name), trace, *args, **kwargs) == expected, name
    assert all(mine.dtype == back.dtype and np.array_equal(mine, back)
               for mine, back in zip(SchemeTrace(events).columns(), read.columns()))


def _lockstep():
    p = make_piecewise_max_problem(4, 12, seed=2)
    x0 = p.point_at_gap(8.0, rng=np.random.default_rng(0))
    trace, summary = run_sync(p, "subgrad", 0.25, x0=x0)
    return trace, summary, None


def _sequential():
    p = make_norm_power_problem(3, 1.0, 1.0)
    x0 = p.point_at_gap(30.0, rng=np.random.default_rng(1))
    trace, summary = run_sync(p, "subgrad", 0.25, x0=x0, mode="sequential")
    return trace, summary, None


def _single_server():
    p = make_piecewise_max_problem(6, 20, seed=4)
    x0 = p.point_at_gap(30.0, rng=np.random.default_rng(2))
    model = DelayModel(transit_kind="single-server", service_time=0.5,
                       pause_kind="uniform", tau_pause=2.0, seed=3)
    trace, summary = run_async(p, "subgrad", 0.0625, x0=x0, delay_model=model)
    return trace, summary, model


def _corrupted():
    """The single-server run with one restart's receiver dropped and one
    arrival that no send matches."""

    trace, summary, model = _single_server()
    events = list(trace.events)
    send = next(i for i, e in enumerate(events) if e.kind == "restart" and e.receiver is not None)
    events[send] = events[send]._replace(receiver=None)
    arrival = next(i for i, e in enumerate(events) if e.kind == "arrival")
    events[arrival] = events[arrival]._replace(value=events[arrival].value + 1.0)
    return SchemeTrace(events), summary, model


@pytest.mark.parametrize("run", [_lockstep, _sequential, _single_server, _corrupted])
def test_a_trace_read_back_checks_as_the_trace_in_memory(tmp_path, run):
    trace, summary, model = run()
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path, summary)
    back, _ = SchemeTrace.read_jsonl(path)
    delay = dict(tau_pause=model.tau_pause,
                 tau_transit=model.effective_tau_transit(summary["N"])) if model else {}
    found = check_trace(trace, eps=summary["eps"], N=summary["N"], f_star=0.0, **delay)
    assert check_trace(back, eps=summary["eps"], N=summary["N"], f_star=0.0, **delay) == found
    assert (found != []) == (run is _corrupted)
    if run is _corrupted:
        assert any("receiver None" in problem for problem in found)
        assert any("matches no send" in problem for problem in found)
    assert SchemeTrace.read_jsonl(path)[0] == trace


def test_events_refuse_edits_and_a_new_trace_checks_the_edit():
    trace = SchemeTrace([TraceEvent(0.0, 1, "init", 4.0), TraceEvent(1.0, 1, "restart", 3.0)])
    assert traces.check_top_copy_never_restarts(trace, 1) == ["copy 1 restarted at t=1.0"]
    with pytest.raises(AttributeError):
        trace.events.append(TraceEvent(2.0, 1, "restart", 2.0))
    with pytest.raises(TypeError):
        trace.events[1] = TraceEvent(1.0, 1, "iterate", 3.0)
    with pytest.raises(AttributeError):  # the view has no setter
        trace.events = [*trace.events, TraceEvent(2.0, 1, "restart", 2.0)]
    assert len(traces.check_top_copy_never_restarts(trace, 1)) == 1
    edited = SchemeTrace([*trace.events, TraceEvent(2.0, 1, "restart", 2.0)])
    assert len(traces.check_top_copy_never_restarts(edited, 1)) == 2


def _column(record, name, dtype):
    return np.frombuffer(base64.b64decode(record[name]), dtype).copy()


def _set_copy(path, copy):
    """Set the copy of the trace's first restart to ``copy``."""

    restart = traces.KINDS.index("restart")
    lines = path.read_text().splitlines()
    number, record = next((n, json.loads(line)) for n, line in enumerate(lines[1:], 2)
                          if restart in _column(json.loads(line), "kind", "i1"))
    copies = _column(record, "copy", "<i2")
    copies[_column(record, "kind", "i1").tolist().index(restart)] = copy
    record["copy"] = base64.b64encode(copies.tobytes()).decode()
    lines[number - 1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    return number


@pytest.mark.parametrize("copy", [2000, -2000, 2 ** 15 - 1, -2 ** 15 + 1])
def test_a_copy_off_the_ladder_is_a_violation_not_a_crash(tmp_path, copy):
    trace, summary, _ = _lockstep()
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path, summary)
    _set_copy(path, copy)
    back, _ = SchemeTrace.read_jsonl(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        found = check_trace(back, eps=EPS_MIN, N=summary["N"], f_star=0.0, tau_pause=1.0,
                            tau_transit=1.0)
        found += traces.check_lockstep_iterates(back, summary["periods"])
    assert f"copy {copy} lies outside the ladder -1..{summary['N']}" in found


@pytest.mark.parametrize("copy", [-2 ** 15])
def test_an_int_outside_int64_or_equal_to_the_null_id_is_a_located_config_error(tmp_path, copy):
    trace, summary, _ = _lockstep()
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path, summary)
    number = _set_copy(path, copy)
    with pytest.raises(ConfigError) as err:
        SchemeTrace.read_jsonl(path)
    assert err.value.path == f"{path}:{number}"
    assert "copy -32768 is not a copy" in str(err.value)


def test_a_read_trace_builds_its_events_only_when_they_are_read(tmp_path):
    trace, summary, model = _single_server()
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path, summary)
    back, _ = SchemeTrace.read_jsonl(path)
    delay = dict(tau_pause=model.tau_pause, tau_transit=model.effective_tau_transit(summary["N"]))
    assert check_trace(back, eps=summary["eps"], N=summary["N"], f_star=0.0, **delay) == []
    assert "events" not in vars(back)
    assert back.events == trace.events
    assert "events" in vars(back)


def test_copy_arithmetic_does_not_wrap_at_the_int16_edge():
    top = 2 ** 15 - 1  # top + 1 in int16 would be NO_COPY, and 2^(top + 1) would be 2^-32768
    trace = SchemeTrace([TraceEvent(0.0, 0, "init", 4.0), TraceEvent(1.0, top, "arrival", 3.0),
                         TraceEvent(2.0, top, "arrival", 2.0)])
    assert f"arrival at t=1.0 on copy {top} from None" in traces.check_message_topology(trace, 5)
    assert len(traces.check_contiguous_pause_decrements(trace, 0.5)) == 1  # the decrement is inf
