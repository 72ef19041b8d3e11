"""``repro check``, ``repro replay`` and ``repro diff``: three
questions about a run.

* ``check`` — is it right: the trace oracle over a named run or a
  ``--jsonl`` trace file.
* ``replay`` — does re-executing reproduce it: a named run against its
  exported trace, or a ``repro fuzz`` / ``repro mc`` counterexample.
* ``diff`` — where do two runs differ: the first divergence of two
  traces, or of one process's local views (the Theorem 3.1 lens).

An operand a form does not read is refused, not ignored.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli.common import SCENARIOS, load_trace, resolve_scenario
from repro.obs import (
    check_events,
    diff_traces,
    replay_events,
    view_divergence,
)
from repro.runtime.harness import execute_request
from repro.runtime.registry import make_algorithm
from repro.runtime.sweep import check_cell


def _refuse(problem: str) -> int:
    print(f"error: {problem}", file=sys.stderr)
    return 2


def _cmd_check(args: argparse.Namespace) -> int:
    if args.jsonl and args.scenario is not None:
        return _refuse(
            "give a scenario name or --jsonl PATH, not both "
            f"(got {args.scenario!r} and --jsonl {args.jsonl})"
        )
    if args.model and not args.jsonl:
        return _refuse("--model applies to a --jsonl trace only")
    if args.jsonl:
        events = load_trace(args.jsonl)
        if events is None:
            return 2
        report = check_events(events, model=args.model)
        print(report.describe())
        return 0 if report.ok else 1

    if args.scenario is None:
        return _refuse("provide a scenario name or --jsonl PATH")
    cell = resolve_scenario(args.scenario)
    if cell is None:
        return 2
    verdict = check_cell(cell.request, execute_request(cell.request))
    print(f"{args.scenario}: {cell.blurb}")
    print(verdict.report.describe())
    if not verdict.ok:
        for problem in verdict.problems():
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    if verdict.expected_disagreement:
        print(
            "ok: model invariants hold; the documented disagreement is "
            f"reproduced ({verdict.consensus_violations} consensus "
            "violation(s))"
        )
    else:
        print("ok: all invariants hold")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    if args.repro:
        if args.scenario is not None:
            # argparse fills ``scenario`` before ``trace``.
            return _refuse(
                "--repro FILE takes no scenario or trace operand "
                f"(got {' '.join(filter(None, (args.scenario, args.trace)))})"
            )
        return _replay_counterexample(args.repro)
    if args.scenario is None or args.trace is None:
        return _refuse(
            "provide a scenario name and a trace file (or --repro FILE)"
        )
    cell = resolve_scenario(args.scenario)
    if cell is None:
        return 2
    request = cell.request
    events = load_trace(args.trace)
    if events is None:
        return 2
    try:
        report = replay_events(
            make_algorithm(request.algorithm),
            request.values,
            events,
            t=request.t,
            model=request.model,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.scenario}: {cell.blurb}")
    print(report.describe())
    return 0 if report.matches else 1


def _replay_counterexample(path: str) -> int:
    """Re-execute a ``repro fuzz`` counterexample file.

    Exit 0 when the stored failure reproduces (the file is a faithful
    counterexample), 1 when the run is now clean — e.g. the bug was
    fixed, or the recorded injection is no longer active.
    """
    from repro.errors import ConfigurationError
    from repro.fuzz import load_counterexample, run_case
    from repro.inject import INJECT_ENV, active_injection

    try:
        request, document = load_counterexample(path)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    recorded = document.get("injected_bug")
    if recorded != active_injection():
        print(
            f"note: counterexample was found with {INJECT_ENV}="
            f"{recorded or '<unset>'}, current is "
            f"{active_injection() or '<unset>'}"
        )
    print(
        f"{path}: case {request.name} "
        f"({request.engine}/{request.algorithm}, n={request.n})"
    )
    failures = run_case(request)
    if failures:
        print("counterexample reproduces:")
        for failure in failures:
            print(failure.describe())
        return 0
    print("run is clean: the recorded failure no longer reproduces")
    return 1


def _cmd_diff(args: argparse.Namespace) -> int:
    if not args.trace_a or not args.trace_b:
        return _refuse("provide two trace files")
    if args.pid is not None and args.ignore is not None:
        return _refuse("--ignore applies to a whole-trace diff, not to --pid")
    a = load_trace(args.trace_a)
    b = load_trace(args.trace_b)
    if a is None or b is None:
        return 2
    if args.pid is not None:
        carried = {p for event in (*a, *b) for p in (event.pid, event.peer)}
        if args.pid not in carried:
            # No event names it, so both views are empty: a verdict on
            # nothing, not an indistinguishability.
            return _refuse(
                f"no event in either trace carries p{args.pid} (as pid or peer)"
            )
        divergence = view_divergence(a, b, args.pid)
        if divergence is None:
            print(
                f"p{args.pid}'s local views are indistinguishable "
                "(its causal pasts match, process by process)"
            )
            return 0
        print(f"p{args.pid}: " + divergence.describe())
        return 1
    fields = "ts" if args.ignore is None else args.ignore
    ignore = tuple(name.strip() for name in fields.split(",") if name.strip())
    diff = diff_traces(a, b, ignore=ignore)
    print(diff.describe())
    return 0 if diff.identical else 1


def register(parsers: dict[str, argparse.ArgumentParser]) -> None:
    """Fill in this module's command parsers (named in ``main.COMMANDS``)."""
    p_check = parsers["check"]
    p_check.add_argument(
        "scenario",
        nargs="?",
        help=f"one of {sorted(SCENARIOS)} (or use --jsonl)",
    )
    p_check.add_argument(
        "--jsonl",
        metavar="PATH",
        help="check an exported trace file instead of a named scenario",
    )
    p_check.add_argument(
        "--model",
        choices=["RS", "RWS"],
        help=(
            "synchrony checker for --jsonl traces (default: weak round "
            "synchrony, sound for both models)"
        ),
    )
    p_check.set_defaults(func=_cmd_check)

    p_replay = parsers["replay"]
    p_replay.add_argument(
        "scenario", nargs="?", help=f"one of {sorted(SCENARIOS)}"
    )
    p_replay.add_argument(
        "trace",
        nargs="?",
        metavar="TRACE.jsonl",
        help="trace exported by `repro trace`",
    )
    p_replay.add_argument(
        "--repro",
        metavar="FILE",
        help=(
            "re-execute a counterexample emitted by `repro fuzz --out` "
            "and report whether the failure reproduces"
        ),
    )
    p_replay.set_defaults(func=_cmd_replay)

    p_diff = parsers["diff"]
    p_diff.add_argument(
        "trace_a", nargs="?", metavar="A.jsonl", help="first trace"
    )
    p_diff.add_argument(
        "trace_b", nargs="?", metavar="B.jsonl", help="second trace"
    )
    p_diff.add_argument(
        "--pid",
        type=int,
        help="compare only this process's local view (indistinguishability)",
    )
    p_diff.add_argument(
        "--ignore",
        help="comma-separated event fields to ignore (default: ts)",
    )
    p_diff.set_defaults(func=_cmd_diff)
