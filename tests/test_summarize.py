"""``summarize``: a trace file alone reproduces its run's record.

The record fields that the events determine (``time_to_eps``,
``restarts_per_copy``, ``messages_total``, ``complete`` and ``f_x0``) come
from the trace in the engines too, so a cell's ``RunSummary``, the summary
line of its trace file and ``summarize`` of the file's events agree.
"""

import json

import numpy as np
import pytest

from restartfom.async_scheme import DelayModel, run_async
from restartfom.harness import build_problem, load_summaries, parse_config, run_grid
from restartfom.problems import make_norm_power_problem
from restartfom.sync_scheme import run_sync
from restartfom.traces import SchemeTrace, summarize

FIELDS = ("time_to_eps", "restarts_per_copy", "messages_total", "complete", "f_x0")

PROBLEMS = {
    "norm-power": ({"family": "norm-power", "dimension": 3, "mu": 1.0, "d": 1.5, "gap": 30.0},
                   "subgrad"),
    "piecewise-max": ({"family": "piecewise-max", "dimension": 4, "num_pieces": 12,
                       "gap": 8.0}, "subgrad"),
    "least-squares": ({"family": "least-squares", "dimension": 5, "num_rows": 8, "gap": 30.0},
                      "accel"),
}
DELAY = {"transit_kind": "single-server", "service_time": 0.5, "pause_kind": "uniform",
         "tau_pause": 2.0}


def grid_config(family: str, scheme: str):
    problem, method = PROBLEMS[family]
    # The budget (in slots for sync-sequential) cuts the smaller eps short:
    # complete and incomplete cells both.
    document = {"problem": problem, "method": method, "scheme": scheme,
                "eps": [0.25, 2.0 ** -50], "seeds": [0, 1],
                "budget": 200 if scheme == "sync-sequential" else 40}
    if scheme == "async":
        document["delay"] = DELAY
    return parse_config(json.dumps(document))


def fields(record: dict) -> dict:
    return {name: record[name] for name in FIELDS}


@pytest.mark.parametrize("scheme", ["sync-lockstep", "sync-sequential", "async"])
@pytest.mark.parametrize("family", sorted(PROBLEMS))
def test_a_trace_file_alone_reproduces_its_record(tmp_path, family, scheme):
    config = grid_config(family, scheme)
    cells = run_grid(config, tmp_path)
    assert load_summaries(tmp_path) == cells
    assert {cell.complete for cell in cells} == {True, False}
    for cell in cells:
        assert cell.error is None
        trace, line = SchemeTrace.read_jsonl(tmp_path / cell.trace_path)
        f_star = build_problem(config, cell.seed)[0].metadata.f_star
        derived = summarize(trace, f_star, cell.eps)
        assert list(derived) == list(FIELDS)
        assert derived == fields(cell.to_json()) == fields(line)
        # The engine's stop rule ends the run at the event that solves it.
        if cell.complete:
            assert cell.time_to_eps == trace.columns().t[-1]


@pytest.mark.parametrize("run", [
    lambda p, x0: run_sync(p, "subgrad", 0.25, x0=x0, mode="lockstep"),
    lambda p, x0: run_sync(p, "subgrad", 0.25, x0=x0, mode="sequential"),
    lambda p, x0: run_async(p, "subgrad", 0.25, x0=x0, delay_model=DelayModel()),
], ids=["lockstep", "sequential", "async"])
def test_a_start_point_that_solves_the_problem_starts_only_the_top_copy(run):
    p = make_norm_power_problem(2, 1.0, 1.0, center=np.array([1.0, -1.0]))
    trace, summary = run(p, np.array([1.0, -1.0]))
    N = summary["N"]
    expected = {"time_to_eps": 0.0, "restarts_per_copy": {str(N): 0}, "messages_total": 0,
                "complete": True, "f_x0": 0.0}
    assert summarize(trace, p.metadata.f_star, 0.25) == expected == fields(summary)
    assert [event.kind for event in trace.events] == ["init"]


def test_without_metadata_nothing_is_solved():
    trace = SchemeTrace()
    for n in (1, 0, -1):
        trace.record(0.0, n, "init", 4.0)
    trace.record(1.0, 1, "iterate", 3.0)
    trace.record(1.0, 0, "iterate", 0.5)
    trace.record(2.0, 0, "restart", 0.5, (0.0,), receiver=-1, source="own")
    assert summarize(trace, None, 0.5) == {
        "time_to_eps": None, "restarts_per_copy": {"-1": 0, "0": 1, "1": 0},
        "messages_total": 1, "complete": False, "f_x0": 4.0}
    assert list(summarize(trace, None, 0.5)["restarts_per_copy"]) == ["-1", "0", "1"]
    # The same events, with f* known: a value exactly eps above it solves, as
    # in the engines' stop rule.
    assert summarize(trace, 0.0, 0.5)["time_to_eps"] == 1.0
    assert summarize(trace, 0.0, 0.25)["time_to_eps"] is None
