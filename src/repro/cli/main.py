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
* :mod:`repro.cli.serve` — ``serve`` / ``work`` (the sharded campaign
  fabric: one coordinator leasing shards to workers over HTTP, merged
  into the same run directories ``sweep --run-dir`` writes).
* :mod:`repro.cli.fuzz` — ``fuzz`` (differential fuzzing across the
  engines, with counterexample shrinking).
* :mod:`repro.cli.mc` — ``mc`` (exhaustive bounded model checking:
  HOLDS/REFUTED verdicts over closed schedule frontiers, with
  replayable witnesses).
* :mod:`repro.cli.live` — ``live`` (a real asyncio cluster with
  heartbeat-built P and network fault injection).
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

#: Every command and the ``repro.cli`` module that owns it, in ``--help``
#: order.  Start-up stays proportional to the command because only the
#: owner of ``argv[0]`` is imported, and a command module imports an
#: optional layer where the run switches it on ("Import rules" in
#: docs/architecture.md); the names the benchmark tracer binds to stay
#: module-level callables of the command modules.
COMMANDS = {
    "experiments": "experiments",
    "summary": "experiments",
    "sdd": "experiments",
    "commit": "experiments",
    "latency": "experiments",
    "show": "show",
    "trace": "trace",
    "metrics": "trace",
    "check": "check",
    "replay": "check",
    "diff": "check",
    "sweep": "sweep",
    "serve": "serve",
    "work": "serve",
    "fuzz": "fuzz",
    "mc": "mc",
    "live": "live",
    "report": "report",
    "top": "report",
    "causal": "causal",
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The root parser with ``command``'s owner module registered.

    Without a known ``command`` every module registers, so ``--help``
    and the ``invalid choice`` error describe all twenty.  With one,
    the others are bare name-only parsers: usage and error lines read
    the same as with every module loaded.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Synchronous System and Perfect Failure "
            "Detector' (DSN 2000)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    owner = COMMANDS.get(command)
    for name, module in COMMANDS.items():
        if owner not in (None, module):
            sub.add_parser(name)
        elif name not in sub.choices:
            import_module(f"repro.cli.{module}").register(sub)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
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
