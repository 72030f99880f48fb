"""Trace files: the format-2 point table, format-1 reading, valid JSON only."""

import base64
import json
import math

import numpy as np
import pytest

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
