"""``repro report`` and ``repro top``: inspect campaign run directories.

``repro report RUNDIR`` renders the dashboard of a finished (or
interrupted) run directory written by ``repro sweep/fuzz/mc
--run-dir``: coverage over the planned cells, resume and cache
counters, the span tree, SLO verdicts and the slowest cells.  With
``--json`` it emits the machine document (manifest + summary + last
progress heartbeat) instead, which CI validates.

``repro top RUNDIR`` tails a *running* campaign's ``progress.jsonl``
— one frame per heartbeat with ``--follow``, a single frame without.

Invoked with no run directory, ``repro report`` keeps its historical
meaning and regenerates ``EXPERIMENTS.md`` from fresh experiment runs
(the Makefile's ``make report``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from repro.cli import experiments as _experiments
from repro.cli.common import at_least_one
from repro.obs.artifacts import SUMMARY_NAME, RunDir
from repro.obs.progress import latest_progress
from repro.obs.report import (
    find_run_dir,
    render_report,
    render_top,
    report_json,
    summary_problems,
)


def _load_run(path: str) -> RunDir | None:
    try:
        return RunDir.load(find_run_dir(path))
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_report(args: argparse.Namespace) -> int:
    if not at_least_one("--top", args.top):
        return 2
    if args.rundir is None:
        # Legacy mode: regenerate EXPERIMENTS.md from fresh runs.
        return _experiments._cmd_report(args)
    run = _load_run(args.rundir)
    if run is None:
        return 2
    summary = run.summary()
    problems = [] if summary is None else summary_problems(summary)
    if problems:
        # No dashboard and no SLO verdict for a summary the schema
        # rejects: the same refusal as scripts/check_summary.py.
        for problem in problems:
            print(
                f"error: {run.path / SUMMARY_NAME}: {problem}", file=sys.stderr
            )
        return 1
    if args.json:
        print(json.dumps(report_json(run), indent=2, sort_keys=True))
    else:
        print(render_report(run, top=args.top))
    verdicts = (summary or {}).get("slo_verdicts") or []
    failed = [v for v in verdicts if not v.get("ok")]
    return 1 if failed else 0


def _cmd_top(args: argparse.Namespace) -> int:
    if not 0 < args.interval < math.inf:
        # Also nan and inf, which time.sleep refuses with a traceback.
        print(
            f"error: --interval must be a positive number of seconds "
            f"(got {args.interval:g})",
            file=sys.stderr,
        )
        return 2
    run = _load_run(args.rundir)
    if run is None:
        return 2
    print(render_top(run))
    while args.follow:
        last = latest_progress(run.progress_records())
        status = (last or {}).get("status")
        if run.manifest.get("status") != "running" or status in (
            "complete",
            "interrupted",
        ):
            break
        time.sleep(args.interval)
        run = RunDir.load(run.path)
        print(render_top(run))
    return 0


def register(parsers: dict[str, argparse.ArgumentParser]) -> None:
    """Fill in this module's command parsers (named in ``main.COMMANDS``)."""
    p_report = parsers["report"]
    p_report.add_argument(
        "rundir",
        nargs="?",
        help=(
            "a run directory (runs/<run_id>) or a runs root holding "
            "exactly one run; omit to regenerate EXPERIMENTS.md"
        ),
    )
    p_report.add_argument(
        "--json",
        action="store_true",
        help="emit the machine document (manifest + summary + progress)",
    )
    p_report.add_argument(
        "--top",
        type=int,
        default=5,
        metavar="K",
        help="slowest cells to list (default: 5)",
    )
    # The legacy EXPERIMENTS.md flag, honoured only when RUNDIR is absent.
    p_report.add_argument("--output", default="EXPERIMENTS.md")
    p_report.set_defaults(func=_cmd_report)

    p_top = parsers["top"]
    p_top.add_argument("rundir", help="the campaign's run directory")
    p_top.add_argument(
        "--follow",
        action="store_true",
        help="keep printing frames until the run completes",
    )
    p_top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="seconds between frames under --follow (default: 2)",
    )
    p_top.set_defaults(func=_cmd_top)
