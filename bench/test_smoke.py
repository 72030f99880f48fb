"""Smoke test of the benchmark itself; takes about a minute.

    python3 -m pytest -q bench/test_smoke.py

Runs a seconds-long version of every workload, checks that every metric
``BENCHMARK.json`` names is printed with its unit, that the correctness gate
fails when the stored reference is off by one oracle call, and that the
benchmark refuses to run without the program's sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

# Printed on report lines rather than in the result object: failed_frac is
# 0 on a correct run, the two totals are pinned by the reference, and p90 needs
# at least 100 cell samples.
REPORT_ONLY = {"failed_frac": "cells", "oracle_calls_total": "count",
               "sim_time_total": "simulated units", "cell_wall_s_p90": "s"}


def run_bench(*args: str, cwd: Path = ROOT, seconds: int = 1):
    command = [sys.executable, "bench/run.py", "--seed", "0", "--seconds", str(seconds),
               *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(completed) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    # Two ladder rounds give the 100 cell samples cell_wall_s_p90 needs.
    seconds = 10 if workload == "ladder-mix-small" else 1
    completed = run_bench("--workload", workload, "--trace", "0", seconds=seconds)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = result_of(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} == expected
    assert all(value["value"] > 0 for value in result["metrics"].values())
    lines = completed.stdout.splitlines()
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    for name, unit in REPORT_ONLY.items():
        if name == "cell_wall_s_p90" and workload != "ladder-mix-small":
            continue
        assert any(line.startswith(f"{name} = ") and unit in line for line in lines), name
    assert "environment OPENBLAS_NUM_THREADS = 1" in lines


def test_traced_run_prints_every_per_layer_metric():
    completed = run_bench("--workload", "ladder-mix-small", "--trace", "1")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = result_of(completed)
    expected = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} == expected
    assert result["metrics"]["problems.evaluate.calls"]["value"] > 0
    assert result["metrics"]["methods.clone.calls"]["value"] > 0


def test_gate_fails_on_a_reference_off_by_one_oracle_call(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    for record in reference["pwmax-lockstep-d200"].values():
        record[1] += 1  # oracle_calls_total
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    completed = run_bench("--workload", "pwmax-lockstep-d200", "--trace", "0",
                          "--reference", str(corrupted))
    assert completed.returncode == 1, completed.stdout + completed.stderr
    result = result_of(completed)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "FAILED" in completed.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
