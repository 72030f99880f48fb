"""Trace files: the format-2 point table, format-1 reading, valid JSON only."""

import base64
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from restartfom.cli import main
from restartfom.errors import ConfigError, NonFiniteValueError
from restartfom.problems import make_piecewise_max_problem
from restartfom.sync_scheme import run_sync
from restartfom.traces import SchemeTrace, TraceEvent


def lockstep_run():
    p = make_piecewise_max_problem(4, 12, seed=2)
    x0 = p.point_at_gap(8.0, rng=np.random.default_rng(0))
    return run_sync(p, "subgrad", 0.25, x0=x0)


def test_format_two_header_comes_first_and_holds_every_distinct_point(tmp_path):
    trace, summary = lockstep_run()
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path, summary)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["format"] == 2
    table = header["points"]
    assert table["dtype"] == "<f8"
    rows = np.frombuffer(base64.b64decode(table["b64"]), dtype="<f8").reshape(table["shape"])
    distinct = list(dict.fromkeys(e.point for e in trace.events if e.point is not None))
    assert [tuple(row) for row in rows.tolist()] == distinct
    events = [json.loads(line) for line in lines[1:-1]]
    assert len(events) == len(trace.events)
    assert not any("point" in record for record in events)
    assert json.loads(lines[-1]) == {"summary": summary}


def test_format_two_round_trip_shares_one_row_per_restart_and_send(tmp_path):
    trace, summary = lockstep_run()
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path, summary)
    back, summary_back = SchemeTrace.read_jsonl(path)
    assert back == trace
    assert summary_back == summary

    records = [json.loads(line) for line in path.read_text().splitlines()[1:-1]]
    pairs = 0
    for i, record in enumerate(records):
        if record["kind"] == "restart" and record["copy"] > -1:
            send = records[i + 1]
            assert send["kind"] == "send" and send["copy"] == record["copy"]
            assert send["point_id"] == record["point_id"]
            assert back.events[i + 1].point is back.events[i].point
            pairs += 1
    assert pairs > 0


def test_format_two_rewrite_is_byte_identical(tmp_path):
    trace, summary = lockstep_run()
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    trace.write_jsonl(first, summary)
    SchemeTrace.read_jsonl(first)[0].write_jsonl(second, summary)
    assert first.read_bytes() == second.read_bytes()


def test_trace_without_points_round_trips(tmp_path):
    trace = SchemeTrace([TraceEvent(0.0, 0, "init", 3.0), TraceEvent(1.0, 0, "iterate", 2.0)])
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path)
    assert SchemeTrace.read_jsonl(path) == (trace, None)


def test_hand_written_format_one_trace_still_reads(tmp_path):
    path = tmp_path / "old.jsonl"
    path.write_text(
        '{"t": 0.0, "copy": 0, "kind": "init", "value": 3.0}\n'
        '{"t": 1.0, "copy": 0, "kind": "restart", "value": 2.5, '
        '"point": [2.5, -0.125], "source": "own"}\n'
        '\n'
        '{"t": 1.0, "copy": 0, "kind": "send", "value": 2.5, '
        '"point": [2.5, -0.125], "receiver": -1}\n'
        '{"t": 2.0, "copy": -1, "kind": "arrival", "value": 2.5, "sender": 0}\n'
        '{"summary": {"periods": 2}}\n'
    )
    trace, summary = SchemeTrace.read_jsonl(path)
    assert trace.events == [
        TraceEvent(0.0, 0, "init", 3.0),
        TraceEvent(1.0, 0, "restart", 2.5, point=(2.5, -0.125), source="own"),
        TraceEvent(1.0, 0, "send", 2.5, point=(2.5, -0.125), receiver=-1),
        TraceEvent(2.0, -1, "arrival", 2.5, sender=0),
    ]
    assert summary == {"periods": 2}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_event_value_is_refused(tmp_path, bad):
    trace = SchemeTrace([TraceEvent(0.0, 0, "init", 1.0),
                         TraceEvent(1.0, 0, "iterate", bad)])
    with pytest.raises(NonFiniteValueError):
        trace.write_jsonl(tmp_path / "trace.jsonl")


def test_trace_dump_prints_points_of_a_format_two_file(tmp_path, capsys):
    trace, summary = lockstep_run()
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path, summary)
    assert main(["trace-dump", str(path)]) == 0
    restart = next(e for e in trace.events if e.kind == "restart")
    assert f"point={list(restart.point)!r}" in capsys.readouterr().out


def _set_point_id(lines, value):
    index = next(i for i, line in enumerate(lines) if '"point_id"' in line)
    record = json.loads(lines[index])
    record["point_id"] = value
    lines[index] = json.dumps(record)
    return index + 1


def _edit_table(lines, key, value):
    header = json.loads(lines[0])
    header["points"][key] = value
    lines[0] = json.dumps(header)
    return 1


def _edit_event(lines, text):
    lines[1] = text
    return 2


@pytest.mark.parametrize("edit", [
    pytest.param(lambda lines: _set_point_id(lines, 10**6), id="point-id-out-of-range"),
    pytest.param(lambda lines: _set_point_id(lines, -1), id="point-id-negative"),
    pytest.param(lambda lines: _edit_table(lines, "b64", "not base64!"), id="bad-base64"),
    pytest.param(lambda lines: _edit_table(lines, "shape", [3, 3, 3]), id="wrong-shape"),
    pytest.param(lambda lines: _edit_event(lines, "[1, 2, 3]"), id="non-object-line"),
    pytest.param(lambda lines: _edit_event(
        lines, '{"t": "abc", "copy": 0, "kind": "init", "value": 1.0}'), id="bad-time"),
])
def test_malformed_trace_is_a_located_config_error(tmp_path, capsys, edit):
    trace, summary = lockstep_run()
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path, summary)
    lines = path.read_text().splitlines()
    number = edit(lines)  # the 1-based line the edit broke
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as err:
        SchemeTrace.read_jsonl(path)
    assert err.value.path == f"{path}:{number}"
    assert main(["trace-dump", str(path)]) == 2
    assert f"error: {path}:{number}: malformed trace record" in capsys.readouterr().err


def _replace_values(path, kind, text):
    """Write ``text`` as the raw JSON value of every ``kind`` event; returns
    the 1-based number of the first line changed."""

    lines = path.read_text().splitlines()
    changed = [i for i, line in enumerate(lines) if f'"kind": "{kind}"' in line]
    for i in changed:
        record = json.loads(lines[i])
        record["value"] = "@"
        lines[i] = json.dumps(record).replace('"@"', text)
    path.write_text("\n".join(lines) + "\n")
    return changed[0] + 1


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999", '"nan"'])
def test_non_finite_restart_values_are_a_located_config_error(tmp_path, capsys, text):
    trace, summary = lockstep_run()
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path, summary)
    number = _replace_values(path, "restart", text)
    with pytest.raises(ConfigError) as err:
        SchemeTrace.read_jsonl(path)
    assert err.value.path == f"{path}:{number}"
    assert main(["trace-dump", str(path)]) == 2
    assert f"error: {path}:{number}: malformed trace record" in capsys.readouterr().err


def _long_trace(events):
    return SchemeTrace([TraceEvent(float(i), i % 5 - 1, "iterate", 100.0 - i * 1e-3)
                        for i in range(events)])


@pytest.mark.parametrize("where", [3, 2500, 5999])
def test_malformed_line_in_a_long_trace_is_located(tmp_path, where):
    path = tmp_path / "trace.jsonl"
    _long_trace(6000).write_jsonl(path)  # several read chunks
    lines = path.read_text().splitlines()
    lines[where - 1] = lines[where - 1].replace('"value"', '"value" 1')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as err:
        SchemeTrace.read_jsonl(path)
    assert err.value.path == f"{path}:{where}"


def test_the_first_malformed_line_is_the_one_reported(tmp_path):
    path = tmp_path / "trace.jsonl"
    _long_trace(50).write_jsonl(path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[19])
    record["t"] = "abc"
    lines[19] = json.dumps(record)  # parses, but is no event
    lines[29] = lines[29][:-1]  # does not parse
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as err:
        SchemeTrace.read_jsonl(path)
    assert err.value.path == f"{path}:20"


ITERATE = '{"t": 1.0, "copy": 0, "kind": "iterate", "value": 2.0'


@pytest.mark.parametrize("merged", [
    # With two records on line 11 and one record over two later lines,
    # the chunk joined into one array still parses to one element per line.
    pytest.param([f'{ITERATE}, "x": [{{"a": 1}}', '{"b": 2}]}'], id="array"),
    pytest.param([f"{ITERATE}", '"source": "own"}'], id="object"),
    pytest.param([], id="split-only"),
])
def test_lines_that_cancel_out_in_one_chunk_are_still_refused(tmp_path, merged):
    path = tmp_path / "trace.jsonl"
    _long_trace(50).write_jsonl(path)
    lines = path.read_text().splitlines()
    lines[10:11 + len(merged)] = [f"{ITERATE}}}, {ITERATE}}}", *merged]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as err:
        SchemeTrace.read_jsonl(path)
    assert err.value.path == f"{path}:11"


@pytest.mark.parametrize("event", [
    TraceEvent(0, 1, "init", 2),
    TraceEvent(0.5, True, "iterate", 1.5),
    TraceEvent(1.0, 0, "send", 1.5, sender=False, receiver=-1),
    TraceEvent(1.0, 0, "restart", 1.5, source="ünïcode"),
])
def test_fields_of_other_types_are_written_as_the_json_encoder_writes_them(tmp_path, event):
    path = tmp_path / "trace.jsonl"
    SchemeTrace([event]).write_jsonl(path)
    record = {name: item for name, item in event._asdict().items() if item is not None}
    assert path.read_text().splitlines()[1] == json.JSONEncoder(allow_nan=False).encode(record)


KINDS = ("init", "iterate", "restart", "task-update", "send", "arrival",
         "pause-begin", "pause-end", "epoch-begin")
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                               -1.7976931348623157e308, 0.1, 1e16, 1e-7])
FLOATS = (EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False)
          | st.builds(np.float64, st.floats(allow_nan=False, allow_infinity=False)))
COPIES = st.integers(-3, 70)
POINTS = st.tuples(FLOATS, FLOATS)


@st.composite
def trace_events(draw):
    """Events with every combination of point, sender, receiver and source,
    plus some whose point repeats an earlier one."""

    events = []
    for has in itertools.product((False, True), repeat=4):
        events.append(TraceEvent(
            t=draw(FLOATS | st.integers(-5, 5)), copy=draw(COPIES),
            kind=draw(st.sampled_from(KINDS)), value=draw(FLOATS),
            point=draw(POINTS) if has[0] else None,
            sender=draw(COPIES) if has[1] else None,
            receiver=draw(COPIES) if has[2] else None,
            source=draw(st.sampled_from(("own", "inbox"))) if has[3] else None))
    for point in draw(st.lists(st.sampled_from([e.point for e in events if e.point]), max_size=4)):
        events.append(TraceEvent(1.0, 0, "restart", 2.0, point=point, source="own"))
        events.append(TraceEvent(1.0, 0, "send", 2.0, point=point, receiver=-1))
    return draw(st.permutations(events))


@given(events=trace_events())
def test_event_lines_are_what_the_json_encoder_writes(tmp_path_factory, events):
    path = tmp_path_factory.mktemp("lines") / "trace.jsonl"
    trace = SchemeTrace(events)
    trace.write_jsonl(path)
    encoder = json.JSONEncoder(allow_nan=False)
    rows = {}
    expected = []
    for event in events:
        record = {"t": event.t, "copy": event.copy, "kind": event.kind, "value": event.value}
        if event.point is not None:
            record["point_id"] = rows.setdefault(event.point, len(rows))
        for name in ("sender", "receiver", "source"):
            if getattr(event, name) is not None:
                record[name] = getattr(event, name)
        expected.append(encoder.encode(record))
    assert path.read_text().splitlines()[1:] == expected

    back, summary = SchemeTrace.read_jsonl(path)
    assert summary is None
    assert back == trace
    for a, b in itertools.combinations(back.events, 2):
        if a.point is not None and a.point == b.point:
            assert a.point is b.point
