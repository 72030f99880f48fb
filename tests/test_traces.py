"""Trace files: the format-5 point table and event blocks, the header they
need, valid JSON only."""

import base64
import itertools
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from restartfom.async_scheme import DelayModel, run_async
from restartfom.bounds import EPS_MIN
from restartfom.cli import main
from restartfom.errors import ConfigError, NonFiniteValueError, ParameterError
from restartfom.problems import make_piecewise_max_problem
from restartfom.sync_scheme import run_sync
from restartfom.traces import (
    BLOCK_EVENTS,
    EVENT_KINDS,
    SchemeTrace,
    TraceEvent,
    check_send_counts,
)
from test_golden import FAMILIES, GAP, MATRIX, METHODS, SCHEMES

# The fields of a format-5 block, each with the struct code of its entries.
FIELDS = {"t": "d", "value": "d", "copy": "h", "kind": "b", "sender": "h", "receiver": "h",
          "source": "b", "point_id": "i"}
KINDS = ("init", "iterate", "restart", "task-update", "arrival", "pause-end")
SOURCES = {None: -1, "own": 0, "inbox": 1}
NULL = -32768  # no sender or receiver


def lockstep_run():
    p = make_piecewise_max_problem(4, 12, seed=2)
    x0 = p.point_at_gap(8.0, rng=np.random.default_rng(0))
    return run_sync(p, "subgrad", 0.25, x0=x0)


def async_run():
    p = make_piecewise_max_problem(4, 12, seed=2)
    x0 = p.point_at_gap(8.0, rng=np.random.default_rng(0))
    model = DelayModel(transit_kind="uniform", tau_transit=2.0,
                       pause_kind="uniform", tau_pause=1.0, seed=3)
    return run_async(p, "subgrad", 0.25, x0=x0, delay_model=model)


def packed(values, code="d"):
    """``values`` as base64 little-endian entries of struct ``code``."""

    return base64.b64encode(b"".join(struct.pack("<" + code, v) for v in values)).decode()


def unpacked(text, code="d"):
    raw = base64.b64decode(text)
    return [value for (value,) in struct.iter_unpack("<" + code, raw)]


def expected_block(events, point_ids):
    """The block line of ``events``, packed field by field."""

    def null(copy):
        return NULL if copy is None else copy

    fields = {"t": [e.t for e in events], "value": [e.value for e in events],
              "copy": [e.copy for e in events], "kind": [KINDS.index(e.kind) for e in events],
              "sender": [null(e.sender) for e in events],
              "receiver": [null(e.receiver) for e in events],
              "source": [SOURCES[e.source] for e in events],
              "point_id": [-1 if i is None else i for i in point_ids]}
    return json.dumps({"events": len(events), **{
        name: packed(fields[name], code) for name, code in FIELDS.items()}},
        separators=(",", ":"))


def block_records(path):
    """The JSON records of a trace file's block lines."""

    return [json.loads(line) for line in path.read_text().splitlines()[1:]
            if not line.startswith('{"summary"')]


def column(path, name):
    """One field over every block of a trace file, in event order."""

    return [item for record in block_records(path)
            for item in unpacked(record[name], FIELDS[name])]


def test_format_two_header_comes_first_and_holds_every_distinct_point(tmp_path):
    trace, summary = lockstep_run()
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path, summary)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["format"] == 5
    table = header["points"]
    assert set(table) == {"shape", "b64"}  # the table is float64 by definition
    rows = np.frombuffer(base64.b64decode(table["b64"]), dtype="<f8").reshape(table["shape"])
    distinct = list(dict.fromkeys(e.point for e in trace.events if e.point is not None))
    assert [tuple(row) for row in rows.tolist()] == distinct
    blocks = [json.loads(line) for line in lines[1:-1]]
    assert sum(block["events"] for block in blocks) == len(trace.events)
    assert all(set(block) == {"events", *FIELDS} for block in blocks)
    assert column(path, "point_id") == [-1 if e.point is None else distinct.index(e.point)
                                        for e in trace.events]
    assert json.loads(lines[-1]) == {"summary": summary}


def test_format_two_round_trip_shares_one_row_per_restart_and_send(tmp_path):
    trace, summary = lockstep_run()
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path, summary)
    back, summary_back = SchemeTrace.read_jsonl(path)
    assert back == trace
    assert summary_back == summary

    # A restart records its own send: one event, one row, the receiver set.
    kinds, copies = column(path, "kind"), column(path, "copy")
    receivers, point_ids = column(path, "receiver"), column(path, "point_id")
    sent = {}  # (copy, value) of each send -> its row
    pairs = 0
    for i, kind in enumerate(kinds):
        if kind == KINDS.index("restart"):
            assert receivers[i] == (copies[i] - 1 if copies[i] > -1 else NULL)
            if back.events[i].source == "inbox":  # the row its sender's send wrote
                assert point_ids[i] == sent[(copies[i] + 1, back.events[i].value)]
                pairs += 1
        if receivers[i] != NULL:
            sent[(copies[i], back.events[i].value)] = point_ids[i]
    assert pairs > 0
    assert len(sent) == summary["messages_total"]


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


def test_a_record_after_a_read_of_the_columns_builds_them_again():
    trace = SchemeTrace([TraceEvent(0.0, 0, "init", 3.0)])
    assert len(trace.columns().t) == len(trace.events) == 1
    trace.record(1.0, 0, "restart", 2.0, (1.0, -2.0), receiver=-1, source="own")
    assert trace.columns().point_id.tolist() == [-1, 0] and trace.points.tolist() == [[1.0, -2.0]]
    assert trace.events[1] == TraceEvent(1.0, 0, "restart", 2.0, (1.0, -2.0), None, -1, "own")


def test_a_trace_read_from_a_file_refuses_a_record_and_keeps_its_events(tmp_path):
    trace, summary = lockstep_run()
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path, summary)
    back, _ = SchemeTrace.read_jsonl(path)
    events = back.events
    with pytest.raises(ParameterError, match=r"SchemeTrace\(trace\.events\)"):
        back.record(99.0, 0, "iterate", 1.0)
    assert back.events is events and back == trace
    for read, recorded in zip(back.columns(), trace.columns()):
        np.testing.assert_array_equal(read, recorded)
    edited = SchemeTrace(back.events)
    edited.record(99.0, 0, "iterate", 1.0)
    assert edited.events == (*trace.events, TraceEvent(99.0, 0, "iterate", 1.0))


def _long_trace(events):
    return SchemeTrace([TraceEvent(float(i), i % 5 - 1, "iterate", 100.0 - i * 1e-3)
                        for i in range(events)])


@pytest.mark.parametrize("events", [0, BLOCK_EVENTS, BLOCK_EVENTS + 1])
def test_blocks_hold_at_most_block_events_and_round_trip(tmp_path, events):
    trace = _long_trace(events)
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path, {"periods": events})
    lines = path.read_text().splitlines()
    counts = [json.loads(line)["events"] for line in lines[1:-1]]
    assert counts == {0: [], BLOCK_EVENTS: [BLOCK_EVENTS],
                      BLOCK_EVENTS + 1: [BLOCK_EVENTS, 1]}[events]
    assert SchemeTrace.read_jsonl(path) == (trace, {"periods": events})


def test_edge_floats_read_back_bit_for_bit(tmp_path):
    edges = [-0.0, 0.0, 5e-324, -5e-324, 1.797e308, -1.797e308, 1.7976931348623157e308]
    trace = SchemeTrace([TraceEvent(t, 0, "iterate", -t) for t in edges])
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path)
    back, _ = SchemeTrace.read_jsonl(path)
    assert [struct.pack("<d", e.t) for e in back.events] == [struct.pack("<d", t) for t in edges]
    assert ([struct.pack("<d", e.value) for e in back.events]
            == [struct.pack("<d", -t) for t in edges])


# A format-5 header whose table holds the one point (1.0, -2.0).
TABLE = '{"format": 5, "points": {"shape": [1, 2], "b64": "AAAAAAAA8D8AAAAAAAAAwA=="}}\n'


@pytest.mark.parametrize("text", [
    pytest.param("", id="empty"),
    pytest.param('{"t": 0.0, "copy": 0, "kind": "init", "value": 3.0}\n'
                 '{"t": 1.0, "copy": 0, "kind": "restart", "value": 2.5, '
                 '"point": [2.5, -0.125], "source": "own"}\n', id="format-one"),
    pytest.param('{"format": 1, "points": {"dtype": "<f8", "shape": [0], "b64": ""}}\n',
                 id="other-format"),
    pytest.param('{"format": 2, "points": {"dtype": "<f8", "shape": [0], "b64": ""}}\n'
                 '{"t": 0.0, "copy": 0, "kind": "init", "value": 3.0}\n', id="format-two"),
    pytest.param('{"format": 3, "points": {"dtype": "<f8", "shape": [0], "b64": ""}}\n'
                 '{"events":0,"t":"","value":"","copy":[],"kind":[],"point_id":[],'
                 '"sender":[],"receiver":[],"source":[]}\n', id="format-three"),
    pytest.param('{"format": 4, "points": {"dtype": "<f8", "shape": [0], "b64": ""}}\n'
                 '{"events":0,"t":"","value":"","copy":[],"kind":[],"point_id":[],'
                 '"sender":[],"receiver":[],"source":[]}\n', id="format-four"),
    pytest.param("\n" + '{"format": 5, "points": {"shape": [0, 0], "b64": ""}}\n',
                 id="header-not-first"),
    # The point table is two non-negative ints of rows and dimension, their
    # product its entry count.
    pytest.param(TABLE.replace("[1, 2]", "[1, 1, 2]"), id="three-dimensional-table"),
    pytest.param('{"format": 5, "points": {"shape": [-1, 2], "b64": ""}}\n',
                 id="negative-rows"),
    pytest.param('{"format": 5, "points": {"shape": [1, -1], "b64": ""}}\n',
                 id="negative-dimension"),
    pytest.param(TABLE.replace("[1, 2]", "[-1, -2]"), id="negative-shape-of-the-right-size"),
    pytest.param(TABLE.replace("[1, 2]", "[1.0, 2]"), id="float-rows"),
    pytest.param(TABLE.replace("[1, 2]", "[2, 2]"), id="shape-larger-than-the-table"),
    pytest.param(TABLE.replace("[1, 2]", "2"), id="shape-not-a-list"),
])
def test_a_file_without_the_format_two_header_is_refused_at_line_one(tmp_path, capsys, text):
    path = tmp_path / "trace.jsonl"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        SchemeTrace.read_jsonl(path)
    assert err.value.path == f"{path}:1"
    assert main(["trace-dump", str(path)]) == 2
    assert f"error: {path}:1: malformed trace record" in capsys.readouterr().err


def test_the_table_the_refused_headers_edit_reads_as_one_point(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text(TABLE)
    trace, summary = SchemeTrace.read_jsonl(path)
    assert trace.points.tolist() == [[1.0, -2.0]]
    assert trace.events == () and summary is None


@pytest.mark.parametrize("gap", [0.5, 1.0, 4.0, 30.0])
def test_send_counts_at_the_smallest_eps_meet_caps_too_large_for_a_float(gap):
    # gap / 2^n eps overflows to inf on the low rungs of this 1024-copy ladder.
    p = make_piecewise_max_problem(2, 6, seed=1)
    x0 = p.point_at_gap(gap, rng=np.random.default_rng(0))
    trace, summary = run_sync(p, "subgrad", EPS_MIN, x0=x0, budget=3)
    assert summary["N"] == 1022
    assert check_send_counts(trace, 0.0, EPS_MIN) == []


def test_a_finite_send_cap_still_reports_its_count():
    events = [TraceEvent(0.0, 0, "init", 1.0)]
    events += [TraceEvent(float(t), 0, "restart", 1.0 - 0.1 * t, receiver=-1)
               for t in range(1, 4)]
    assert check_send_counts(SchemeTrace(events), 0.0, 0.5) == ["copy 0: 3 sends exceed cap 2"]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_event_value_is_refused(tmp_path, bad):
    trace = SchemeTrace([TraceEvent(0.0, 0, "init", 1.0),
                         TraceEvent(1.0, 0, "iterate", bad)])
    with pytest.raises(NonFiniteValueError):
        trace.write_jsonl(tmp_path / "trace.jsonl")
    with pytest.raises(NonFiniteValueError):  # a point goes to the table
        SchemeTrace([TraceEvent(1.0, 0, "restart", 1.0, point=(0.0, bad), source="own")]
                    ).write_jsonl(tmp_path / "trace.jsonl")


def test_a_summary_that_is_no_json_is_refused_before_the_file_exists(tmp_path):
    trace = SchemeTrace([TraceEvent(0.0, 0, "init", 1.0)])
    with pytest.raises(NonFiniteValueError):
        trace.write_jsonl(tmp_path / "trace.jsonl", {"effective_tau_transit": math.inf})
    assert not (tmp_path / "trace.jsonl").exists()


def test_trace_dump_prints_points_of_a_format_two_file(tmp_path, capsys):
    trace, summary = lockstep_run()
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path, summary)
    assert main(["trace-dump", str(path)]) == 0
    restart = next(e for e in trace.events if e.kind == "restart")
    assert f"point={list(restart.point)!r}" in capsys.readouterr().out


def _dump_text(trace, summary):
    """What ``trace-dump`` should print for ``trace``, built from the events."""

    lines = []
    for e in trace.events:
        parts = [f"t={e.t:.6f}", f"copy={e.copy}", e.kind, f"value={e.value!r}"]
        parts += [f"{name}={getattr(e, name)}" for name in ("source", "sender", "receiver")
                  if getattr(e, name) is not None]
        if e.point is not None:
            parts.append(f"point={list(e.point)!r}")
        lines.append(" ".join(parts))
    return "\n".join(lines + ["summary: " + json.dumps(summary)]) + "\n"


def test_trace_dump_of_a_file_matches_the_in_memory_trace(tmp_path, capsys):
    for name, run in (("lockstep", lockstep_run), ("async", async_run)):
        trace, summary = run()
        trace = SchemeTrace(trace.events + _long_trace(BLOCK_EVENTS + 3).events)  # > one block
        path = tmp_path / f"{name}.jsonl"
        trace.write_jsonl(path, summary)
        capsys.readouterr()
        assert main(["trace-dump", str(path)]) == 0
        assert capsys.readouterr().out == _dump_text(trace, summary)
    assert any(e.sender is not None for e in trace.events)  # the async run's arrivals


def _edit_block(lines, name, index, value):
    """Set entry ``index`` of field ``name`` in the first block line."""

    record = json.loads(lines[1])
    entries = unpacked(record[name], FIELDS[name])
    entries[index] = value
    record[name] = packed(entries, FIELDS[name])
    lines[1] = json.dumps(record)
    return 2, f"event {index} of the block"


def _set_point_id(lines, value):
    index = unpacked(json.loads(lines[1])["point_id"], "i").index(0)
    return _edit_block(lines, "point_id", index, value)


def _repack(code, new_code):
    """Field text of ``code`` entries rewritten with entries of ``new_code``
    (a struct code) or, given None, as the JSON array format 4 stored."""

    def repack(text):
        entries = unpacked(text, code)
        return entries if new_code is None else packed(entries, new_code)
    return repack


def _edit_field(lines, name, value):
    record = json.loads(lines[1])
    record[name] = value(record[name]) if callable(value) else value
    lines[1] = json.dumps(record)
    return 2, None


def _drop_field(lines, name):
    record = json.loads(lines[1])
    del record[name]
    lines[1] = json.dumps(record)
    return 2, None


def _edit_table(lines, key, value):
    header = json.loads(lines[0])
    header["points"][key] = value(header["points"][key]) if callable(value) else value
    lines[0] = json.dumps(header)
    return 1, None


def _edit_event(lines, text):
    lines[1] = text
    return 2, None


@pytest.mark.parametrize("edit", [
    pytest.param(lambda lines: _set_point_id(lines, 10**6), id="point-id-out-of-range"),
    pytest.param(lambda lines: _set_point_id(lines, -2), id="point-id-negative"),
    pytest.param(lambda lines: _edit_field(lines, "point_id", _repack("i", "d")),
                 id="point-id-float"),
    pytest.param(lambda lines: _edit_table(lines, "b64", "not base64!"), id="bad-base64"),
    pytest.param(lambda lines: _edit_table(lines, "shape", [3, 3, 3]), id="wrong-shape"),
    pytest.param(lambda lines: _edit_table(lines, "shape", lambda shape: [shape[0], 1, shape[1]]),
                 id="three-dimensional-shape"),
    pytest.param(lambda lines: _edit_table(lines, "shape", lambda shape: [-shape[0], -shape[1]]),
                 id="negative-shape"),
    pytest.param(lambda lines: _edit_table(lines, "shape", lambda shape: [
        True, shape[0] * shape[1]]), id="bool-in-shape"),
    pytest.param(lambda lines: _edit_table(lines, "b64", packed(
        [math.inf, *unpacked(json.loads(lines[0])["points"]["b64"])[1:]])), id="non-finite-point"),
    pytest.param(lambda lines: _edit_event(lines, "[1, 2, 3]"), id="non-object-line"),
    pytest.param(lambda lines: _edit_field(lines, "t", "abc"), id="bad-time"),
    pytest.param(lambda lines: _edit_field(lines, "value", "not base64!"),
                 id="bad-base64-float-column"),
    # Characters outside the base64 alphabet that a lenient decoder would skip.
    pytest.param(lambda lines: _edit_field(lines, "t", lambda text: text[:8] + "*" + text[8:]),
                 id="non-alphabet-in-float-column"),
    pytest.param(lambda lines: _edit_field(lines, "value", lambda text: text[:8] + "\n" + text[8:]),
                 id="newline-in-float-column"),
    pytest.param(lambda lines: _edit_field(lines, "t", lambda text: text[:8] + "\u00e9" + text[8:]),
                 id="non-ascii-in-float-column"),
    pytest.param(lambda lines: _edit_table(
        lines, "b64", " " + json.loads(lines[0])["points"]["b64"]), id="space-in-point-table"),
    pytest.param(lambda lines: _edit_field(lines, "t", lambda text: text[:-12] + "="),
                 id="float-column-one-short"),
    pytest.param(lambda lines: _edit_field(lines, "copy", lambda text: packed(
        unpacked(text, "h")[:-1], "h")), id="ragged-column"),
    pytest.param(lambda lines: _edit_field(lines, "source", None), id="column-not-an-array"),
    pytest.param(lambda lines: _edit_field(lines, "events", "172"), id="count-not-an-int"),
    pytest.param(lambda lines: _drop_field(lines, "receiver"), id="missing-column"),
    pytest.param(lambda lines: _edit_field(lines, "copy", _repack("h", None)), id="copy-type"),
    pytest.param(lambda lines: _edit_field(lines, "kind", lambda text: [
        KINDS[code] for code in unpacked(text, "b")]), id="kind-type"),
    pytest.param(lambda lines: _edit_block(lines, "kind", 9, len(KINDS)), id="unknown-kind"),
    pytest.param(lambda lines: _edit_block(lines, "kind", 9, -1), id="send-kind"),
    pytest.param(lambda lines: _edit_field(lines, "sender", _repack("h", "i")), id="sender-type"),
    pytest.param(lambda lines: _edit_field(lines, "receiver", _repack("h", None)),
                 id="receiver-type"),
    pytest.param(lambda lines: _edit_block(lines, "source", 15, 2), id="source-type"),
    pytest.param(lambda lines: _edit_block(lines, "copy", 7, NULL), id="null-copy"),
])
def test_malformed_trace_is_a_located_config_error(tmp_path, capsys, edit):
    trace, summary = lockstep_run()
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path, summary)
    lines = path.read_text().splitlines()
    number, names = edit(lines)  # the 1-based line the edit broke; the event it names
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as err:
        SchemeTrace.read_jsonl(path)
    assert err.value.path == f"{path}:{number}"
    if names is not None:
        assert names in str(err.value)
    assert main(["trace-dump", str(path)]) == 2
    assert f"error: {path}:{number}: malformed trace record" in capsys.readouterr().err


def _first_restart(path):
    """The 1-based line of the first block holding a restart, that block's
    record and the restart's index in it."""

    restart = KINDS.index("restart")
    for number, line in enumerate(path.read_text().splitlines()[1:], 2):
        record = json.loads(line)
        kinds = unpacked(record["kind"], "b") if "kind" in record else []
        if restart in kinds:
            return number, record, kinds.index(restart)
    raise AssertionError("no restart")


def _replace_field(path, name, text):
    """Write ``text`` as the raw JSON of field ``name`` in the first block
    with a restart; returns that block's line."""

    number, record, _ = _first_restart(path)
    lines = path.read_text().splitlines()
    record[name] = "@"
    lines[number - 1] = json.dumps(record).replace('"@"', text)
    path.write_text("\n".join(lines) + "\n")
    return number


def _replace_restart_bits(path, bits):
    """Store ``bits`` as the float64 value of the first restart."""

    number, record, index = _first_restart(path)
    values = unpacked(record["value"])
    values[index] = struct.unpack("<d", bits)[0]
    record["value"] = packed(values)
    lines = path.read_text().splitlines()
    lines[number - 1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    return number, f"event {index} of the block"


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda path: (_replace_field(path, "value", "NaN"), None), id="NaN"),
    pytest.param(lambda path: (_replace_field(path, "copy", "Infinity"), None), id="Infinity"),
    pytest.param(lambda path: (_replace_field(path, "sender", "-Infinity"), None),
                 id="-Infinity"),
    pytest.param(lambda path: (_replace_field(path, "value", "1e999"), None), id="1e999"),
    pytest.param(lambda path: (_replace_field(path, "value", '"nan"'), None), id='"nan"'),
    pytest.param(lambda path: _replace_restart_bits(path, struct.pack("<d", math.nan)),
                 id="nan-bits"),
    pytest.param(lambda path: _replace_restart_bits(path, b"\x01\x00\x00\x00\x00\x00\xf8\xff"),
                 id="signalling-nan-bits"),
    pytest.param(lambda path: _replace_restart_bits(path, struct.pack("<d", math.inf)),
                 id="inf-bits"),
    pytest.param(lambda path: _replace_restart_bits(path, struct.pack("<d", -math.inf)),
                 id="-inf-bits"),
])
def test_non_finite_restart_values_are_a_located_config_error(tmp_path, capsys, corrupt):
    trace, summary = lockstep_run()
    path = tmp_path / "trace.jsonl"
    trace.write_jsonl(path, summary)
    number, names = corrupt(path)
    with pytest.raises(ConfigError) as err:
        SchemeTrace.read_jsonl(path)
    assert err.value.path == f"{path}:{number}"
    if names is not None:
        assert names in str(err.value)
    assert main(["trace-dump", str(path)]) == 2
    assert f"error: {path}:{number}: malformed trace record" in capsys.readouterr().err


LONG = 3 * BLOCK_EVENTS + 10  # four blocks: lines 2 to 5


def _corrupt_event(lines, where, name="kind", value=7):
    """Set field ``name`` of event ``where`` (counted over the whole trace);
    returns the 1-based line of its block."""

    number = 2 + where // BLOCK_EVENTS
    record = json.loads(lines[number - 1])
    entries = unpacked(record[name], FIELDS[name])
    entries[where % BLOCK_EVENTS] = value
    record[name] = packed(entries, FIELDS[name])
    lines[number - 1] = json.dumps(record)
    return number


@pytest.mark.parametrize("where", [3, 2500, 5999, LONG - 1])
def test_malformed_line_in_a_long_trace_is_located(tmp_path, where):
    path = tmp_path / "trace.jsonl"
    _long_trace(LONG).write_jsonl(path)
    lines = path.read_text().splitlines()
    number = _corrupt_event(lines, where)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as err:
        SchemeTrace.read_jsonl(path)
    assert err.value.path == f"{path}:{number}"
    index = where % BLOCK_EVENTS
    assert f"event {index} of the block: kind 7 is not a kind code" in str(err.value)


def test_the_first_malformed_line_is_the_one_reported(tmp_path):
    path = tmp_path / "trace.jsonl"
    _long_trace(LONG).write_jsonl(path)
    lines = path.read_text().splitlines()
    _corrupt_event(lines, BLOCK_EVENTS + 40, "copy", NULL)  # decodes, but is no event
    _corrupt_event(lines, BLOCK_EVENTS + 20, "copy", NULL)  # an earlier event, same block
    lines[3] = lines[3][:-1]  # the next block does not parse
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as err:
        SchemeTrace.read_jsonl(path)
    assert err.value.path == f"{path}:3"
    assert "event 20 of the block: copy -32768 is not a copy" in str(err.value)


@pytest.mark.parametrize("merge", [
    # Two blocks on one line, as an array or side by side, or one block over
    # two lines: each is refused at the line it starts on.
    pytest.param(lambda first, second: [f"[{first}, {second}]"], id="array"),
    pytest.param(lambda first, second: [f"{first} {second}"], id="object"),
    pytest.param(lambda first, second: [first[:len(first) // 2], first[len(first) // 2:],
                                        second], id="split-only"),
])
def test_lines_that_cancel_out_in_one_chunk_are_still_refused(tmp_path, merge):
    path = tmp_path / "trace.jsonl"
    _long_trace(LONG).write_jsonl(path)
    lines = path.read_text().splitlines()
    lines[2:4] = merge(lines[2], lines[3])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as err:
        SchemeTrace.read_jsonl(path)
    assert err.value.path == f"{path}:3"


@pytest.mark.parametrize("event", [
    TraceEvent(0, 1, "init", 2),
    TraceEvent(0.5, True, "iterate", 1.5),
    TraceEvent(1.0, 0, "task-update", 1.5, sender=False, receiver=-1),
    TraceEvent(np.float32(1.0), np.int16(0), "restart", np.float64(1.5), source="inbox"),
])
def test_fields_of_other_types_are_written_as_the_json_encoder_writes_them(tmp_path, event):
    # The name dates from JSON-array blocks; each field is now packed as its dtype.
    path = tmp_path / "trace.jsonl"
    SchemeTrace([event]).write_jsonl(path)
    assert path.read_text(encoding="utf-8").splitlines()[1] == expected_block([event], [None])
    back, _ = SchemeTrace.read_jsonl(path)
    assert back == SchemeTrace([event])


@pytest.mark.parametrize("event", [
    pytest.param(TraceEvent(0.0, 32768, "iterate", 1.0), id="copy-above-int16"),
    pytest.param(TraceEvent(0.0, NULL, "iterate", 1.0), id="copy-equal-to-the-null-id"),
    pytest.param(TraceEvent(0.0, None, "iterate", 1.0), id="copy-none"),
    pytest.param(TraceEvent(0.0, 0, "arrival", 1.0, sender=-40000), id="sender-below-int16"),
    pytest.param(TraceEvent(0.0, 1, "restart", 1.0, receiver=2 ** 64), id="receiver-beyond-int64"),
    pytest.param(TraceEvent(0.0, 0, "send", 1.0), id="unknown-kind"),
    pytest.param(TraceEvent(0.0, 0, "restart", 1.0, source="ünïcode"), id="unknown-source"),
])
def test_an_event_the_columns_cannot_hold_is_refused_not_wrapped(tmp_path, event):
    path = tmp_path / "trace.jsonl"
    with pytest.raises(ParameterError):
        SchemeTrace([TraceEvent(0.0, 0, "init", 2.0), event]).write_jsonl(path)
    assert not path.exists()


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                               -1.7976931348623157e308, 0.1, 1e16, 1e-7])
FLOATS = (EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False)
          | st.builds(np.float64, st.floats(allow_nan=False, allow_infinity=False)))
COPIES = st.integers(-3, 70) | st.booleans()
POINTS = st.tuples(FLOATS, FLOATS)


@st.composite
def trace_events(draw):
    """Events with every combination of point, sender, receiver and source,
    plus some whose point repeats an earlier one."""

    events = []
    for has in itertools.product((False, True), repeat=4):
        events.append(TraceEvent(
            t=draw(FLOATS | st.integers(-5, 5)), copy=draw(COPIES),
            kind=draw(st.sampled_from(sorted(EVENT_KINDS))), value=draw(FLOATS),
            point=draw(POINTS) if has[0] else None,
            sender=draw(COPIES) if has[1] else None,
            receiver=draw(COPIES) if has[2] else None,
            source=draw(st.sampled_from(("own", "inbox"))) if has[3] else None))
    for point in draw(st.lists(st.sampled_from([e.point for e in events if e.point]), max_size=4)):
        events.append(TraceEvent(1.0, 0, "restart", 2.0, point=point, receiver=-1, source="own"))
        events.append(TraceEvent(2.0, -1, "restart", 2.0, point=point, source="inbox"))
    return draw(st.permutations(events))


@given(events=trace_events())
def test_event_lines_are_what_the_json_encoder_writes(tmp_path_factory, events):
    path = tmp_path_factory.mktemp("lines") / "trace.jsonl"
    trace = SchemeTrace(events)
    trace.write_jsonl(path)
    rows = {}
    point_ids = [None if e.point is None else rows.setdefault(e.point, len(rows))
                 for e in events]
    assert path.read_text().splitlines()[1:] == [expected_block(events, point_ids)]

    back, summary = SchemeTrace.read_jsonl(path)
    assert summary is None
    assert back == trace
    for a, b in itertools.combinations(back.events, 2):
        if a.point is not None and a.point == b.point:
            assert a.point is b.point


@pytest.mark.parametrize("family, method", MATRIX)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_recorded_columns_are_those_of_the_events_they_read_as(family, method, scheme):
    problem = FAMILIES[family]()
    x0 = problem.point_at_gap(GAP, rng=np.random.default_rng(0))
    trace = SCHEMES[scheme](problem, METHODS[method], x0)[0]
    again = SchemeTrace(trace.events)
    assert all(mine.dtype == back.dtype and np.array_equal(mine, back)
               for mine, back in zip(trace.columns(), again.columns(), strict=True))
    assert trace.points.dtype == again.points.dtype
    assert np.array_equal(trace.points, again.points)
