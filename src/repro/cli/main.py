"""The ``repro`` command: run experiments and inspect runs from a shell.

This module is the thin dispatcher; each subcommand lives in its own
module under :mod:`repro.cli` and registers itself via ``register``:

* :mod:`repro.cli.experiments` — ``experiments``, ``summary``,
  ``sdd``, ``commit``, ``latency``.
* :mod:`repro.cli.show` — ``show SCENARIO`` (round tableau / DOT).
* :mod:`repro.cli.trace` — ``trace`` (JSONL export) and ``metrics``.
* :mod:`repro.cli.check` — ``check`` (trace oracle), ``replay``
  (deterministic re-execution), ``diff`` (divergence / Theorem 3.1).
* :mod:`repro.cli.sweep` — ``sweep SPACE`` (parallel, cached, checked
  scenario-space execution through the unified runtime).
* :mod:`repro.cli.fuzz` — ``fuzz`` (differential fuzzing across the
  engines, with counterexample shrinking).
* :mod:`repro.cli.mc` — ``mc`` (exhaustive bounded model checking:
  HOLDS/REFUTED verdicts over closed schedule frontiers, with
  replayable witnesses).
* :mod:`repro.cli.report` — ``report`` (run-directory dashboard, or
  the legacy EXPERIMENTS.md regeneration when no run is named) and
  ``top`` (tail a running campaign's heartbeats).
* :mod:`repro.cli.causal` — ``causal`` (happens-before graphs,
  critical-path latency attribution, suspicion forensics).
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module
from typing import Sequence

from repro._lazy import lazy_exports

# Backward-compatible re-exports: callers (and tests) import the CLI
# vocabulary from here; repro.cli.common and repro.cli.experiments hold
# it as views of the runtime's tables.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "common": ("SCENARIO_ALIASES", "SCENARIOS"),
        "experiments": ("ALGORITHMS",),
    },
)

#: Every command: the ``repro.cli`` module that owns it and its
#: one-line summary, in ``--help`` order.  Start-up stays proportional
#: to the command because only the owner of ``argv[0]`` is imported —
#: the root ``--help`` and the usage errors need only this table — and
#: a command module imports an optional layer where the run switches it
#: on ("Import rules" in docs/architecture.md); the names the benchmark
#: tracer binds to stay module-level callables of the command modules.
COMMANDS = {
    "experiments": ("experiments", "run the E1-E15 suite"),
    "summary": ("experiments", "headline latency table"),
    "sdd": ("experiments", "the SDD story"),
    "commit": ("experiments", "commit-rate comparison"),
    "latency": ("experiments", "latency profile of an algorithm"),
    "show": ("show", "render a named scenario"),
    "trace": ("trace", "export a scenario's structured event trace"),
    "metrics": ("trace", "print a scenario's metrics snapshot"),
    "check": ("check", "run the trace oracle over a scenario or JSONL file"),
    "replay": (
        "check",
        "re-execute an exported trace and assert event equality",
    ),
    "diff": ("check", "divergence diff of two traces (Theorem 3.1 lens)"),
    "sweep": ("sweep", "execute a scenario space (parallel, cached, checked)"),
    "fuzz": ("fuzz", "differential fuzzing across the engines, with shrinking"),
    "mc": (
        "mc",
        "exhaustively model-check a property over a bounded instance "
        "(HOLDS/REFUTED verdicts with witnesses)",
    ),
    "report": (
        "report",
        "dashboard over a campaign run directory "
        "(or regenerate EXPERIMENTS.md when no RUNDIR is given)",
    ),
    "top": ("report", "tail a running campaign's progress heartbeats"),
    "causal": (
        "causal",
        "happens-before analysis: critical paths and suspicion forensics",
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The root parser with ``command``'s owner module registered.

    ``None`` registers every module: the whole parser, for library
    callers.  Any other name registers its owner only, and a name that
    is no command (``--help``, a typo, ``""``) registers none.  The
    other commands stay name-only parsers with their summaries, so the
    root help, usage and error lines read the same either way.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Synchronous System and Perfect Failure "
            "Detector' (DSN 2000)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {
        name: sub.add_parser(name, help=summary)
        for name, (_, summary) in COMMANDS.items()
    }
    for owner in dict.fromkeys(module for module, _ in COMMANDS.values()):
        if command is None or COMMANDS.get(command, (None,))[0] == owner:
            import_module(f"repro.cli.{owner}").register(
                {
                    name: parsers[name]
                    for name, (module, _) in COMMANDS.items()
                    if module == owner
                }
            )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else "")
    args = parser.parse_args(argv)
    # Every command, before it opens anything: imported here, not at
    # the top, so the root help and usage errors load no more than this.
    from repro.inject import unregistered_injection

    problem = unregistered_injection()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``repro ... | head -1``).  Point
        # stdout at devnull so the interpreter's exit-time flush cannot
        # raise a second time, and exit non-zero quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code
