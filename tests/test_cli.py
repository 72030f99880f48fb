"""Command-line interface: subcommands, flag precedence, exit codes."""

import json
import math
import subprocess
import sys

import pytest

from restartfom.cli import main
from restartfom.harness import OUTPUT_DIR_ENV, read_summaries_csv


def write_config(tmp_path, name="config.json", **overrides):
    document = {
        "problem": {"family": "norm-power", "dimension": 1, "mu": 1.0,
                    "d": 1.0, "gap": 3.0},
        "method": "subgrad",
        "scheme": "sync-lockstep",
        "eps": [0.5, 0.25],
    }
    document.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return path


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)


def test_grid_writes_artifacts_and_reports(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["grid", "--config", str(config), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert f"wrote 2 cells to {out}" in captured.out
    assert "[pass]" in captured.out
    assert "2 pass, 0 fail, 0 unverifiable" in captured.out
    assert (out / "summary.csv").exists()
    assert (out / "summaries.json").exists()


def test_run_prints_single_cell_summary(tmp_path, capsys):
    config = write_config(tmp_path, eps=[0.5])
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["eps"] == 0.5
    assert record["compliant"] is True
    assert (out / record["trace_path"]).exists()


def test_run_requires_single_eps(tmp_path, capsys):
    config = write_config(tmp_path)  # two accuracies
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "exactly one accuracy" in capsys.readouterr().err


def test_run_reports_cell_failure(tmp_path, capsys):
    # accel on the d=1 family has no curvature constant to work with.
    config = write_config(tmp_path, eps=[0.5], method={"kind": "accel"})
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "cell failed" in capsys.readouterr().err


def test_verify_reads_back_stored_summaries(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    main(["grid", "--config", str(config), "--out", str(out)])
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 0
    assert "2 pass, 0 fail" in capsys.readouterr().out


def test_verify_flags_injected_violation(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    main(["grid", "--config", str(config), "--out", str(out)])
    store = out / "summaries.json"
    document = json.loads(store.read_text())
    document["summaries"][0]["bound_theorem"] = 0.5  # below any measured time
    store.write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_output_dir_env_var_is_honored(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "from-env"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(out))
    assert main(["grid", "--config", str(config)]) == 0
    assert (out / "summary.csv").exists()
    capsys.readouterr()
    assert main(["verify"]) == 0  # no flags: same env-resolved directory


def test_out_flag_beats_env_var(tmp_path, monkeypatch):
    config = write_config(tmp_path)
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "ignored"))
    explicit = tmp_path / "explicit"
    main(["grid", "--config", str(config), "--out", str(explicit)])
    assert (explicit / "summary.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_seed_flag_replaces_config_seeds(tmp_path):
    config = write_config(tmp_path, seeds=[1, 2, 3])
    out = tmp_path / "out"
    main(["grid", "--config", str(config), "--out", str(out), "--seed", "9"])
    document = json.loads((out / "summaries.json").read_text())
    assert [cell["seed"] for cell in document["summaries"]] == [9, 9]


def test_budget_flag_limits_runs(tmp_path):
    config = write_config(tmp_path)
    document = json.loads(config.read_text())
    document["problem"]["gap"] = 30.0
    config.write_text(json.dumps(document))
    out = tmp_path / "out"
    main(["grid", "--config", str(config), "--out", str(out), "--budget", "2"])
    document = json.loads((out / "summaries.json").read_text())
    assert all(cell["complete"] is False for cell in document["summaries"])


def test_fit_command_prints_model_line(tmp_path, capsys):
    config = write_config(tmp_path, eps=[2.0 ** -k for k in range(1, 7)])
    document = json.loads(config.read_text())
    document["problem"]["gap"] = 3.7  # measured times carry the log signal
    config.write_text(json.dumps(document))
    out = tmp_path / "out"
    main(["grid", "--config", str(config), "--out", str(out)])
    capsys.readouterr()
    assert main(["fit", "log", "--out", str(out)]) == 0
    assert "log model: time_to_eps" in capsys.readouterr().out
    assert main(["fit", "log", "--field", "bound_corollary", "--out", str(out)]) == 0
    assert "bound_corollary" in capsys.readouterr().out


def test_fit_command_rejects_degenerate_grid(tmp_path, capsys):
    config = write_config(tmp_path, eps=[0.5, 0.25, 0.125])
    out = tmp_path / "out"
    main(["grid", "--config", str(config), "--out", str(out)])
    capsys.readouterr()
    assert main(["fit", "log", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err


def test_trace_dump_prints_events_and_summary(tmp_path, capsys):
    config = write_config(tmp_path, eps=[0.5])
    out = tmp_path / "out"
    main(["run", "--config", str(config), "--out", str(out)])
    record = json.loads(capsys.readouterr().out)
    assert main(["trace-dump", str(out / record["trace_path"])]) == 0
    captured = capsys.readouterr().out
    assert "t=0.000000" in captured
    assert "restart" in captured
    assert "summary: {" in captured


def test_config_error_paths_exit_two(tmp_path, capsys):
    assert main(["grid"]) == 2  # no --config
    assert "requires a configuration file" in capsys.readouterr().err
    assert main(["grid", "--config", str(tmp_path / "missing.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["grid", "--config", str(bad)]) == 2
    config = write_config(tmp_path)
    assert main(["grid", "--config", str(config), "--seed", "-1",
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["grid", "--config", str(config), "--budget", "0",
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["trace-dump", str(tmp_path / "missing.jsonl")]) == 2


def test_module_entry_point_runs_in_subprocess(tmp_path):
    config = write_config(tmp_path, eps=[0.5])
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "restartfom.cli", "grid",
         "--config", str(config), "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "wrote 1 cells" in result.stdout
    rows = read_summaries_csv(out / "summary.csv")
    assert rows[0]["compliant"] is True


def test_subnormal_eps_is_a_config_error(tmp_path, capsys):
    config = write_config(tmp_path, eps=[5e-324])
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "error: eps[0]:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("record", [{}, [1, 2]], ids=["empty-object", "list"])
@pytest.mark.parametrize("command", [["verify"], ["fit", "log"]])
def test_malformed_summary_record_exits_two(tmp_path, capsys, record, command):
    config = write_config(tmp_path, eps=[0.5, 0.25, 0.125, 0.0625])
    out = tmp_path / "out"
    main(["grid", "--config", str(config), "--out", str(out)])
    document = json.loads((out / "summaries.json").read_text())
    document["summaries"][1] = record
    (out / "summaries.json").write_text(json.dumps(document))
    capsys.readouterr()
    assert main(command + ["--out", str(out)]) == 2
    assert "summaries.json:summaries[1]:" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("time_to_eps", "abc"), ("N", "3"), ("oracle_calls_total", True),
    ("complete", 1), ("eps", None), ("restarts_per_copy", []),
])
@pytest.mark.parametrize("command", [["verify"], ["fit", "log"]])
def test_summary_field_of_the_wrong_type_exits_two(tmp_path, capsys, field, value, command):
    config = write_config(tmp_path, eps=[0.5, 0.25, 0.125, 0.0625])
    out = tmp_path / "out"
    main(["grid", "--config", str(config), "--out", str(out)])
    document = json.loads((out / "summaries.json").read_text())
    document["summaries"][2][field] = value
    (out / "summaries.json").write_text(json.dumps(document))
    capsys.readouterr()
    assert main(command + ["--out", str(out)]) == 2
    assert f"summaries.json:summaries[2].{field}: expected" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["time_to_eps", "eps", "bound_theorem", "f_x0"])
@pytest.mark.parametrize("command", [["verify"], ["fit", "log"]])
def test_nan_in_a_summary_exits_two(tmp_path, capsys, field, command):
    config = write_config(tmp_path, eps=[0.5, 0.25, 0.125, 0.0625])
    out = tmp_path / "out"
    main(["grid", "--config", str(config), "--out", str(out)])
    document = json.loads((out / "summaries.json").read_text())
    document["summaries"][1][field] = math.nan
    (out / "summaries.json").write_text(json.dumps(document))  # writes a bare NaN
    capsys.readouterr()
    assert main(command + ["--out", str(out)]) == 2
    assert f"summaries.json:summaries[1].{field}: NaN" in capsys.readouterr().err


def test_infinite_time_in_a_summary_fails_its_bounds(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    main(["grid", "--config", str(config), "--out", str(out)])
    document = json.loads((out / "summaries.json").read_text())
    document["summaries"][1]["time_to_eps"] = math.inf
    (out / "summaries.json").write_text(json.dumps(document))
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 1
    assert "[FAIL] eps=0.25 seed=0: inf exceeds" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["trace-dump", "t.jsonl", "--config", "c.json"],
    ["trace-dump", "t.jsonl", "--out", "o"],
    ["trace-dump", "t.jsonl", "--seed", "1"],
    ["trace-dump", "t.jsonl", "--budget", "5"],
    ["verify", "--seed", "1"],
    ["verify", "--budget", "5"],
    ["fit", "log", "--seed", "1"],
    ["fit", "log", "--budget", "5"],
])
def test_commands_reject_flags_they_would_ignore(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, where", [
    ("seed", "abc", "delay.seed"),
    ("seed", 1.5, "delay.seed"),
    ("seed", True, "delay.seed"),
    ("tau_transit", True, "delay.tau_transit"),
    ("seed", -1, "delay"),
    # The single-server transit bound is (N + 2) * service_time, with no scale
    # factor: one below 1 would make it unsound.
    ("tau_factor", 1.0, "delay.tau_factor"),
])
def test_a_bad_delay_field_exits_2_at_its_location(tmp_path, capsys, field, value, where):
    delay = {"transit_kind": "deterministic", "tau_transit": 1.0,
             "pause_kind": "deterministic", "tau_pause": 2.0, field: value}
    config = write_config(tmp_path, scheme="async", delay=delay)
    assert main(["grid", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {where}: " in capsys.readouterr().err


@pytest.mark.parametrize("method", [{"kind": "accel", "L": math.inf},
                                    {"kind": "univ", "L0": math.inf}])
def test_an_infinite_method_constant_exits_2(tmp_path, capsys, method):
    config = write_config(tmp_path, method=method)
    assert "Infinity" in config.read_text()
    assert main(["grid", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "error: method" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, where", [
    ({"problem": {"family": "norm-power", "dimension": 1, "mu": 1.0, "d": 1.0,
                  "gap": 10 ** 400}}, "error: problem.gap: "),
    ({"problem": {"family": "norm-power", "dimension": 1, "mu": 1.0, "d": 1.0,
                  "gap": 3.0, "center": [10 ** 400]}}, "error: problem.center: "),
    ({"method": {"kind": "accel", "L": 10 ** 400}}, "error: method: "),
    ({"scheme": "async", "delay": {"transit_kind": "deterministic", "tau_transit": 1.0,
                                   "pause_kind": "deterministic", "tau_pause": 10 ** 400}},
     "error: delay: "),
    ({"N": 2000}, "ParameterError: N = 2000"),
], ids=["gap", "center", "L", "tau_pause", "N"])
def test_a_number_too_large_for_a_float_exits_2_without_a_traceback(
        tmp_path, capsys, overrides, where):
    config = write_config(tmp_path, **overrides)
    assert main(["grid", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert where in err
    assert "Traceback" not in err


def test_too_few_pieces_exit_2_at_num_pieces(tmp_path, capsys):
    config = write_config(tmp_path, problem={"family": "piecewise-max", "dimension": 3,
                                             "num_pieces": 2, "gap": 2.0})
    assert main(["grid", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "error: problem.num_pieces: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_grid_exits_2_when_a_cell_failed_after_writing_everything(tmp_path, capsys):
    # Neither the spec nor the piecewise-max metadata gives accel an L.
    config = write_config(tmp_path, method="accel",
                          problem={"family": "piecewise-max", "dimension": 3,
                                   "num_pieces": 8, "gap": 2.0})
    out = tmp_path / "out"
    assert main(["grid", "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "0 pass, 0 fail, 2 unverifiable" in captured.out
    assert captured.err.count("ConfigError: accel needs a smoothness constant L") == 2
    assert (out / "summary.csv").exists() and (out / "summaries.json").exists()


def test_verify_reports_failed_cells_and_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, method="accel",
                          problem={"family": "piecewise-max", "dimension": 3,
                                   "num_pieces": 8, "gap": 2.0})
    out = tmp_path / "out"
    assert main(["grid", "--config", str(config), "--out", str(out)]) == 2
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        f"[----] eps={eps!r} seed=0: unverifiable (cell failed: ConfigError: accel needs "
        "a smoothness constant L (in the method spec or the problem metadata))"
        for eps in (0.5, 0.25)]
    assert lines[-1] == "0 pass, 0 fail, 2 unverifiable"


def test_oversized_integers_outside_the_config_fields_exit_2(tmp_path, capsys):
    config = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["grid", "--config", str(config), "--out", out,
                 "--budget", "1" + "0" * 400]) == 2
    assert "error: --budget: " in capsys.readouterr().err
    # Longer than the interpreter converts from a decimal string.
    config.write_text(config.read_text().replace('"gap": 3.0', '"gap": 1' + "0" * 5000))
    assert main(["grid", "--config", str(config), "--out", out]) == 2
    assert "error: not valid JSON: " in capsys.readouterr().err
