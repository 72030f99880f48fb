"""Outside-in layer tracing: spans around restartfom's public callables.

Nothing under ``src/`` knows about this module.  :class:`LayerTracer`
replaces the callables below with timing wrappers while it is installed and
puts the originals back when it is removed.  Names bound by ``from ...
import`` are patched where they are used, methods on their class:

========================  ====================================================
layer                     patched callables
========================  ====================================================
``problems``              ``ProblemInstance.evaluate``/``value``/``project``;
                          ``harness.build_problem`` (as ``problems.build``)
``methods``               ``step``/``prime``/``method_init``/``method_restart``
                          in both engines; ``MethodState.clone``
``sync_scheme``           ``harness.run_sync``
``async_scheme``          ``harness.run_async``
``traces``                ``SchemeTrace.write_jsonl``/``read_jsonl``;
                          ``traces.check_trace``/``check_lockstep_iterates``
``bounds``                the ``bound_*`` functions as ``harness`` imports them
``harness``               ``parse_config``, ``run_cell``, ``run_grid``,
                          ``write_summaries_csv``, ``verify_bounds``,
                          ``load_summaries``
``cli``                   ``cli.main``
========================  ====================================================

A span's self time is its duration minus the durations of the spans it
encloses; the tracer's own bookkeeping after a call (counting bytes and
events) is charged to no layer.  Per-call aggregates are kept for every span;
full span records (round, id, parent id, name, start, end) only for the
coarse layers, since the oracle and method spans number in the hundreds of
thousands per round.
"""
from __future__ import annotations

import json
import os
import time

from restartfom import async_scheme, cli, harness, methods, problems, sync_scheme, traces

BOUND_FUNCTIONS = ("bound_sync_theorem", "bound_async_theorem", "bound_cor_subgrad",
                   "bound_cor_accel", "bound_cor_univ")

# (owner, attribute, layer name, keep full span records)
PATCHES = (
    [(problems.ProblemInstance, "evaluate", "problems.evaluate", False),
     (problems.ProblemInstance, "value", "problems.value", False),
     (problems.ProblemInstance, "project", "problems.project", False),
     (harness, "build_problem", "problems.build", True),
     (methods.MethodState, "clone", "methods.clone", False)]
    + [(engine, attribute, name, False)
       for engine in (sync_scheme, async_scheme)
       for attribute, name in (("step", "methods.step"), ("prime", "methods.prime"),
                               ("method_init", "methods.init"),
                               ("method_restart", "methods.restart"))]
    + [(harness, "run_sync", "sync_scheme.run", True),
       (harness, "run_async", "async_scheme.run", True),
       (traces.SchemeTrace, "write_jsonl", "traces.write", True),
       (traces.SchemeTrace, "read_jsonl", "traces.read", True),
       (traces, "check_trace", "traces.check", True),
       (traces, "check_lockstep_iterates", "traces.check", True)]
    + [(harness, name, "bounds", True) for name in BOUND_FUNCTIONS]
    + [(cli, "parse_config", "harness.config", True),
       (harness, "run_cell", "harness.run_cell", True),
       (cli, "run_grid", "harness.grid", True),
       (harness, "write_summaries_csv", "harness.csv", True),
       (cli, "verify_bounds", "harness.verify", True),
       (harness, "verify_bounds", "harness.verify", True),
       (cli, "load_summaries", "harness.load", True),
       (harness, "load_summaries", "harness.load", True),
       (cli, "main", "cli", True)]
)


def _count_sync(counters, args, result) -> None:
    counters["sync_scheme.periods"] += result[1]["periods"]


def _count_async(counters, args, result) -> None:
    trace, summary = result
    counters["async_scheme.trace_events"] += len(trace.events)
    counters["async_scheme.messages"] += summary["messages_total"]
    counters["async_scheme.iterates"] += sum(
        event.kind == "iterate" for event in trace.events)


def _count_write(counters, args, result) -> None:
    trace, path = args[0], args[1]
    counters["traces.write.bytes"] += os.path.getsize(path)
    counters["traces.events"] += len(trace.events)


COUNTERS = {"sync_scheme.run": _count_sync, "async_scheme.run": _count_async,
            "traces.write": _count_write}


class LayerTracer:
    """Aggregated spans per (layer, enclosing layer), plus layer counters."""

    def __init__(self):
        self.stack: list[list] = []  # [name, start, enclosed time, kept span id]
        self.stats: dict[tuple[str, str | None], list] = {}  # -> [calls, self time]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.round = 0
        self._saved: list[tuple] = []

    def reset(self, round_index: int) -> None:
        """Start a new round: clear aggregates and counters, keep span records."""

        self.stats, self.round = {}, round_index
        self.counters = {name: 0 for name in (
            "sync_scheme.periods", "async_scheme.trace_events", "async_scheme.messages",
            "async_scheme.iterates", "traces.write.bytes", "traces.events")}

    def _wrap(self, fn, name: str, keep: bool):
        stack, clock = self.stack, time.perf_counter
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = len(self.spans) if keep else None
            if keep:
                self.spans.append(None)  # reserve the id; filled in on exit
            frame = [name, clock(), 0.0,
                     span_id if keep else (parent[3] if parent else None)]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                key = (name, parent[0] if parent else None)
                entry = self.stats.get(key)
                if entry is None:
                    entry = self.stats[key] = [0, 0.0]
                entry[0] += 1
                entry[1] += duration - frame[2]
                if keep:
                    self.spans[span_id] = (self.round, span_id,
                                           parent[3] if parent else None,
                                           name, frame[1], end)
                if parent is not None:
                    parent[2] += duration
            if counter is not None:
                counter(self.counters, args, result)
                if parent is not None:
                    parent[2] += clock() - end
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attribute, name, keep in PATCHES:
            original = vars(owner)[attribute]
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(original.__func__, name, keep))
            else:
                replacement = self._wrap(original, name, keep)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, replacement)

    def remove(self) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved = []

    # -- reading the results ------------------------------------------------

    def calls(self, name: str, parent: str | None = "*") -> int:
        return sum(entry[0] for (layer, enclosing), entry in self.stats.items()
                   if layer == name and (parent == "*" or enclosing == parent))

    def self_s(self, name: str) -> float:
        return sum(entry[1] for (layer, _), entry in self.stats.items() if layer == name)

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` the benchmark itself spent inside the innermost
        open span out of that span's self time."""

        if self.stack:
            self.stack[-1][2] += seconds

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of the current round."""

        def ratio(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        out: dict[str, float] = {}
        for name in ("problems.evaluate", "problems.value", "problems.project",
                     "problems.build", "methods.step", "methods.clone", "methods.init",
                     "methods.prime", "methods.restart", "sync_scheme.run",
                     "async_scheme.run", "traces.write"):
            out[f"{name}.calls"] = self.calls(name)
            out[f"{name}.self_s"] = self.self_s(name)
        out["problems.evaluate.us_per_call"] = 1e6 * ratio(
            out["problems.evaluate.self_s"], out["problems.evaluate.calls"])
        out["methods.evals_per_step"] = ratio(
            self.calls("problems.evaluate", "methods.step"), out["methods.step.calls"])
        counters = self.counters
        out["sync_scheme.periods"] = counters["sync_scheme.periods"]
        out["async_scheme.trace_events"] = counters["async_scheme.trace_events"]
        out["async_scheme.messages"] = counters["async_scheme.messages"]
        out["async_scheme.committed_frac"] = ratio(
            counters["async_scheme.iterates"], self.calls("methods.step", "async_scheme.run"))
        out["traces.write.bytes"] = counters["traces.write.bytes"]
        out["traces.read.self_s"] = self.self_s("traces.read")
        out["traces.check.self_s"] = self.self_s("traces.check")
        out["traces.events"] = counters["traces.events"]
        out["traces.bytes_per_event"] = ratio(counters["traces.write.bytes"],
                                              counters["traces.events"])
        out["bounds.calls"] = self.calls("bounds")
        out["bounds.self_s"] = self.self_s("bounds")
        for name in ("config", "run_cell", "grid", "csv", "verify", "load"):
            out[f"harness.{name}.self_s"] = self.self_s(f"harness.{name}")
        out["cli.self_s"] = self.self_s("cli")
        return out

    def write_spans(self, handle) -> None:
        for record in self.spans:
            round_index, span_id, parent_id, name, start, end = record
            handle.write(json.dumps({"round": round_index, "id": span_id,
                                     "parent": parent_id, "name": name,
                                     "start": start, "end": end}) + "\n")
