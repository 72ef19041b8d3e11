"""``repro trace``: what happened in a named run.

``repro trace NAME`` renders the run round by round (the scenario's
blurb, its algorithm/model/values line and the round tableau);
``--jsonl PATH`` writes its structured event trace instead, the
machine form ``check``, ``replay``, ``diff`` and ``causal`` read.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from repro.cli.common import SCENARIOS, resolve_scenario
from repro.obs import EventLog
from repro.runtime.harness import execute_request, harness_for
from repro.trace import round_tableau

if TYPE_CHECKING:
    from repro.runtime.space import NamedCell


def _cmd_trace(args: argparse.Namespace) -> int:
    cell = resolve_scenario(args.scenario)
    if cell is None:
        return 2
    if args.jsonl:
        return _export(args.scenario, cell, args.jsonl)
    request = cell.request
    run = harness_for(request.engine).execute(request, None)
    print(f"{args.scenario}: {cell.blurb}")
    print(
        f"algorithm={run.algorithm_name}, model={request.model}, "
        f"values={request.values}"
    )
    print()
    print(round_tableau(run))
    return 0


def _export(name: str, cell: NamedCell, path: str) -> int:
    # Before the cell runs: a trace nobody can write is a usage error.
    try:
        handle = open(path, "w", encoding="utf-8")
    except OSError as exc:
        print(
            f"error: cannot write trace to {path}: {exc.strerror or exc}",
            file=sys.stderr,
        )
        return 2
    with handle:
        # The event log stamps a logical counter, so the export is
        # deterministic and `repro replay` can match it byte-for-byte.
        log = EventLog()
        log.events = list(execute_request(cell.request).events)
        count = log.dump_jsonl(handle)
    print(f"wrote {count} events to {path}")
    kinds: dict[str, int] = {}
    for event in log:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    summary = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
    print(f"# {name}: {cell.blurb}", file=sys.stderr)
    print(f"# events: {summary}", file=sys.stderr)
    return 0


def register(parsers: dict[str, argparse.ArgumentParser]) -> None:
    """Fill in this module's command parsers (named in ``main.COMMANDS``)."""
    p_trace = parsers["trace"]
    p_trace.add_argument("scenario", help=f"one of {sorted(SCENARIOS)}")
    p_trace.add_argument(
        "--jsonl",
        metavar="PATH",
        help=(
            "write the run's structured event trace to PATH instead of "
            "rendering its rounds"
        ),
    )
    p_trace.set_defaults(func=_cmd_trace)
