"""``repro causal``: happens-before analysis of a trace or run dir.

Given a JSONL trace (``repro trace --jsonl``, ``make causal-smoke``
artifacts) the command reconstructs the causal graph and prints, per
decision, the critical path — the longest chain of message hops behind
the decide, the hop count the Λ latency measures count — plus an audit
of every suspicion (whether a crash in the trace justifies it).

Given a run directory (``repro sweep --run-dir``), the same analysis
runs over every cached cell result and prints one summary line per
cell, flagging Λ-bound anomalies.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import closing
from pathlib import Path

from repro.cli.common import load_trace
from repro.obs.causal import annotate
from repro.obs.critical import causal_summary, critical_paths
from repro.trace.diagram import event_diagram


def _print_trace_report(events, args: argparse.Namespace) -> int:
    graph = annotate(events)
    summary = causal_summary(events, graph=graph)
    paths = critical_paths(events, graph=graph)
    if args.decide is not None:
        paths = [path for path in paths if path.pid == args.decide]
        if not paths:
            print(
                f"error: no decide event for p{args.decide} in the trace",
                file=sys.stderr,
            )
            return 2
        summary["decisions"] = [path.to_dict() for path in paths]
    if args.suspect is not None:
        summary["suspicions"] = [
            report
            for report in summary["suspicions"]
            if report["suspected"] == args.suspect
        ]
        if not summary["suspicions"]:
            print(
                f"error: nobody suspects p{args.suspect} in the trace",
                file=sys.stderr,
            )
            return 2

    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True, default=repr))
        return 1 if summary["anomalies"] else 0

    print(
        f"{summary['events']} events ({summary['clock']} clock), "
        f"{summary['message_edges']} message edges, "
        f"max critical path {summary['max_path_length']} hops"
    )
    for path in paths:
        print(
            f"  decide p{path.pid}={path.value!r}"
            + (f" @ round {path.round}" if path.round is not None else "")
            + f": {path.length} message hops"
        )
    for report in summary["suspicions"]:
        verdict = "justified" if report["justified"] else "UNJUSTIFIED"
        print(
            f"  suspect p{report['observer']}->p{report['suspected']}: {verdict}"
        )
    for problem in summary["anomalies"]:
        print(f"  ANOMALY: {problem}")

    if args.diagram:
        marked = paths[0] if paths else None
        if marked is not None:
            print(
                f"\ncritical path of p{marked.pid}'s decision "
                f"(rows marked *):"
            )
        print(event_diagram(events, highlight=marked.nodes if marked else ()))
    return 1 if summary["anomalies"] else 0


def _print_rundir_report(path: Path, args: argparse.Namespace) -> int:
    from repro.obs.artifacts import RunDir
    from repro.obs.report import find_run_dir
    from repro.runtime.cache import ResultCache

    try:
        run_dir = RunDir.load(find_run_dir(path))
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cells: list[dict] = []
    anomalies = 0
    with closing(ResultCache(run_dir.results_dir)) as store:
        for result in store.results():
            if not result.events:
                continue
            summary = causal_summary(result.events)
            summary["cell"] = result.name
            anomalies += len(summary["anomalies"])
            cells.append(summary)
    if store.stats.corrupt_evictions:
        print(
            f"error: {store.stats.corrupt_evictions} unreadable record(s) "
            f"under {run_dir.results_dir}",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(json.dumps(cells, indent=2, sort_keys=True, default=repr))
        return 1 if anomalies else 0
    print(f"{run_dir.run_id}: {len(cells)} cells with events")
    for summary in cells:
        lengths = sorted(
            {entry["length"] for entry in summary["decisions"]}
        )
        line = (
            f"  {summary['cell']:<24} decisions={len(summary['decisions'])} "
            f"path-hops={lengths or '-'}"
        )
        if summary["suspicions"]:
            line += f" suspicions={len(summary['suspicions'])}"
        if summary["anomalies"]:
            line += f" ANOMALIES={len(summary['anomalies'])}"
        print(line)
        for problem in summary["anomalies"]:
            print(f"    {problem}")
    return 1 if anomalies else 0


def _cmd_causal(args: argparse.Namespace) -> int:
    target = Path(args.target)
    if target.is_dir():
        return _print_rundir_report(target, args)
    events = load_trace(args.target)
    if events is None:
        return 2
    return _print_trace_report(events, args)


def register(parsers: dict[str, argparse.ArgumentParser]) -> None:
    """Fill in this module's command parsers (named in ``main.COMMANDS``)."""
    p_causal = parsers["causal"]
    p_causal.add_argument(
        "target",
        help="a JSONL trace file, or a run directory with results/",
    )
    p_causal.add_argument(
        "--decide",
        type=int,
        metavar="PID",
        help="only the critical path of PID's decision",
    )
    p_causal.add_argument(
        "--suspect",
        type=int,
        metavar="PID",
        help="only suspicions *of* PID (forensic audit)",
    )
    p_causal.add_argument(
        "--diagram",
        action="store_true",
        help=(
            "render the trace as a space-time diagram with the first "
            "selected decision's critical path marked"
        ),
    )
    p_causal.add_argument(
        "--json",
        action="store_true",
        help="emit the full analysis as JSON",
    )
    p_causal.set_defaults(func=_cmd_causal)
