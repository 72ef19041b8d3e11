"""``repro trace`` and ``repro metrics``: structured observability
exports for a named scenario."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from repro.cli.common import SCENARIOS, resolve_scenario
from repro.obs import EventLog, MetricsRegistry, Profiler, set_profiler
from repro.runtime.harness import execute_request


def _cmd_trace(args: argparse.Namespace) -> int:
    cell = resolve_scenario(args.scenario)
    if cell is None:
        return 2
    # Before the cell runs: a trace nobody can write is a usage error.
    sink = nullcontext()
    if args.jsonl:
        try:
            sink = open(args.jsonl, "w", encoding="utf-8")
        except OSError as exc:
            print(
                f"error: cannot write trace to {args.jsonl}: "
                f"{exc.strerror or exc}",
                file=sys.stderr,
            )
            return 2
    with sink as handle:
        # The event log stamps a logical counter, so the export is
        # deterministic and `repro replay` can match it byte-for-byte.
        log = EventLog()
        log.events = list(execute_request(cell.request).events)
        if handle is not None:
            count = log.dump_jsonl(handle)
            print(f"wrote {count} events to {args.jsonl}")
        else:
            for line in log.jsonl_lines():
                print(line)
    kinds: dict[str, int] = {}
    for event in log:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    summary = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
    print(f"# {args.scenario}: {cell.blurb}", file=sys.stderr)
    print(f"# events: {summary}", file=sys.stderr)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    cell = resolve_scenario(args.scenario)
    if cell is None:
        return 2
    profiler = Profiler()
    set_profiler(profiler)
    try:
        result = execute_request(cell.request)
    finally:
        set_profiler(None)
    registry = MetricsRegistry()
    registry.merge_state(result.metrics)
    profiler.merge_into(registry)
    if args.json:
        print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
    else:
        print(f"{args.scenario}: {cell.blurb}")
        print(registry.render())
    return 0


def register(parsers: dict[str, argparse.ArgumentParser]) -> None:
    """Fill in this module's command parsers (named in ``main.COMMANDS``)."""
    p_trace = parsers["trace"]
    p_trace.add_argument("scenario", help=f"one of {sorted(SCENARIOS)}")
    p_trace.add_argument(
        "--jsonl",
        metavar="PATH",
        help="write the trace to PATH (default: print to stdout)",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_metrics = parsers["metrics"]
    p_metrics.add_argument(
        "scenario",
        nargs="?",
        default="floodset-rws",
        help=f"one of {sorted(SCENARIOS)} (default: floodset-rws)",
    )
    p_metrics.add_argument(
        "--json",
        action="store_true",
        help=(
            "emit the full snapshot as JSON (histograms keep their "
            "p50/p90/p99 summaries)"
        ),
    )
    p_metrics.set_defaults(func=_cmd_metrics)
