"""Command-line front end: run, grid, verify, fit, and trace-dump.

Exit codes: 0 when every verifiable cell honors its bounds, 1 when any cell
violates one, 2 for configuration or file errors or when a cell failed.  The
output directory is resolved as: ``--out`` flag, then the RESTARTFOM_OUT
environment variable, then the config's ``out`` entry, then ``./runs``.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from restartfom.errors import ConfigError, ParameterError
from restartfom.harness import (
    FIT_FIELDS,
    fit_rate,
    load_summaries,
    parse_config,
    resolve_output_dir,
    run_grid,
    verify_bounds,
)
from restartfom.traces import SchemeTrace


def _add_location_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="JSON experiment configuration file")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (beats RESTARTFOM_OUT and the config)")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    _add_location_flags(parser)
    parser.add_argument("--seed", type=int, metavar="INT",
                        help="replace the config's seed list with this one seed")
    parser.add_argument("--budget", type=int, metavar="INT",
                        help="replace the config's period/time budget")


def _read_config(path):
    if not path:
        raise ConfigError("--config", "this command requires a configuration file")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from exc
    try:
        return parse_config(text)
    except ConfigError as exc:
        if exc.path:
            raise
        raise ConfigError(str(path), exc.message) from exc  # e.g. not valid JSON


def _load_config(args):
    config = _read_config(args.config)
    seeds = None if args.seed is None else (args.seed,)
    for flag, field, value in (("--seed", "seeds", seeds), ("--budget", "budget", args.budget)):
        if value is not None:
            try:
                config = dataclasses.replace(config, **{field: value})
            except ParameterError as exc:  # replace runs the config's rules again
                raise ConfigError(flag, str(exc)) from exc
    return config


def _output_dir(args) -> Path:
    return resolve_output_dir(_read_config(args.config) if args.config else None, args.out)


def _echo(lines) -> None:
    """Print ``lines`` to stdout; a reader that closed the pipe early ends them quietly."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # Later writes, and the flush at exit, go nowhere instead of failing again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _report_exit(report, echo=True) -> int:
    if echo:
        _echo(report.lines())
    if any(verdict.summary.error is not None for verdict in report.verdicts):
        return 2
    return 0 if report.all_compliant else 1


def cmd_run(args) -> int:
    config = _load_config(args)
    if len(config.eps) != 1:
        raise ConfigError("eps", "the run command expects exactly one accuracy; use grid")
    if len(config.seeds) != 1:
        raise ConfigError("seeds", "the run command expects exactly one seed; "
                                   "--seed selects one, or use grid")
    [summary] = run_grid(config, out_dir=args.out)
    _echo([json.dumps(summary.to_json(), indent=2)])
    if summary.error is not None:
        print(f"cell failed: {summary.error}", file=sys.stderr)
    return _report_exit(verify_bounds([summary]), echo=False)


def cmd_grid(args) -> int:
    config = _load_config(args)
    summaries = run_grid(config, out_dir=args.out)
    failed = [summary for summary in summaries if summary.error is not None]
    for summary in failed:
        print(f"eps={summary.eps!r} seed={summary.seed}: {summary.error}", file=sys.stderr)
    directory = resolve_output_dir(config, args.out)
    _echo([f"wrote {len(summaries)} cells to {directory}"])
    return _report_exit(verify_bounds(summaries))


def cmd_verify(args) -> int:
    return _report_exit(verify_bounds(load_summaries(_output_dir(args))))


def cmd_fit(args) -> int:
    summaries = load_summaries(_output_dir(args))
    _echo([fit_rate(summaries, args.model, field=args.field).line()])
    return 0


def _event_line(event) -> str:
    parts = [f"t={event.t:.6f}", f"copy={event.copy}", event.kind, f"value={event.value!r}"]
    parts += [f"{name}={getattr(event, name)}" for name in ("source", "sender", "receiver")
              if getattr(event, name) is not None]
    if event.point is not None:
        parts.append(f"point={list(event.point)!r}")
    return " ".join(parts)


def cmd_trace_dump(args) -> int:
    trace, summary = SchemeTrace.read_jsonl(args.trace)
    _echo(map(_event_line, trace.events))
    if summary is not None:
        _echo(["summary: " + json.dumps(summary)])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="restartfom",
        description="Benchmark harness for the parallel restart scheme.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run a single (eps, seed) cell")
    _add_run_flags(run)
    run.set_defaults(handler=cmd_run)

    grid = commands.add_parser("grid", help="run every (eps, seed) cell of a config")
    _add_run_flags(grid)
    grid.set_defaults(handler=cmd_grid)

    verify = commands.add_parser("verify", help="check stored summaries against bounds")
    _add_location_flags(verify)
    verify.set_defaults(handler=cmd_verify)

    fit = commands.add_parser("fit", help="fit a summary column against a scaling model")
    fit.add_argument("model", choices=("log", "power"))
    fit.add_argument("--field", default="time_to_eps", choices=FIT_FIELDS,
                     help="summary column to fit (default: measured time)")
    _add_location_flags(fit)
    fit.set_defaults(handler=cmd_fit)

    dump = commands.add_parser("trace-dump", help="print a JSONL trace readably")
    dump.add_argument("trace", metavar="PATH")
    dump.set_defaults(handler=cmd_trace_dump)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ParameterError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
