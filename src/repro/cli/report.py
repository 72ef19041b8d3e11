"""``repro report``: inspect campaign run directories.

``repro report RUNDIR`` renders the dashboard of a finished run
directory written by ``repro sweep/fuzz/mc --run-dir``: coverage over
the planned cells, resume and cache counters, the span tree, SLO
verdicts and the slowest cells.  A run whose manifest status is not
``complete`` (still running, or interrupted) gets one line instead:
``progress: N/M planned cells done``, counted from its
``metrics.jsonl``.  With ``--json`` it emits the machine document
(manifest + summary + progress) instead, which CI validates.

Invoked with no run directory, ``repro report`` keeps its historical
meaning and regenerates ``EXPERIMENTS.md`` from fresh experiment runs
(the Makefile's ``make report``).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cli import experiments as _experiments
from repro.cli.common import at_least_one
from repro.obs.artifacts import SUMMARY_NAME, RunDir
from repro.obs.report import (
    find_run_dir,
    render_report,
    report_json,
    summary_problems,
)


def _cmd_report(args: argparse.Namespace) -> int:
    if not at_least_one("--top", args.top):
        return 2
    if args.rundir is None:
        # Legacy mode: regenerate EXPERIMENTS.md from fresh runs.
        return _experiments._cmd_report(args)
    try:
        run = RunDir.load(find_run_dir(args.rundir))
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = None
    if run.manifest.get("status") == "complete":
        try:
            summary = run.read_summary()
        except ValueError as exc:
            problems = [str(exc)]
        else:
            problems = summary_problems(summary)
        if problems:
            # No dashboard and no SLO verdict for a finished run whose
            # summary is unreadable or fails the schema: the same
            # refusal as scripts/check_summary.py.
            for problem in problems:
                print(
                    f"error: {run.path / SUMMARY_NAME}: {problem}",
                    file=sys.stderr,
                )
            return 1
    if args.json:
        print(json.dumps(report_json(run), indent=2, sort_keys=True))
    else:
        print(render_report(run, top=args.top))
    verdicts = (summary or {}).get("slo_verdicts") or []
    failed = [v for v in verdicts if not v.get("ok")]
    return 1 if failed else 0


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
