"""``repro fuzz``: the differential fuzzing campaign from a shell.

Generates a deterministic stream of random cases, runs them through the
unified runtime (parallel; cached with ``--run-dir``), cross-checks
every result with the differential oracles, and shrinks any failure to
a minimal, replayable counterexample (``repro replay --repro FILE``
re-executes it).
"""

from __future__ import annotations

import argparse
import sys

from repro.cli.common import at_least_one
from repro.errors import ConfigurationError
from repro.fuzz import FUZZ_ENGINES, run_campaign


def _cmd_fuzz(args: argparse.Namespace) -> int:
    if not at_least_one("--jobs", args.jobs):
        return 2
    try:
        report = run_campaign(
            budget=args.budget,
            seed=args.seed,
            engines=args.engine or ("all",),
            jobs=args.jobs,
            out_dir=args.out,
            shrink_failures=not args.no_shrink,
            max_n=args.max_n,
            run_root=args.run_dir,
            frontier=args.frontier,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.describe())
    return 0 if report.ok else 1


def register(parsers: dict[str, argparse.ArgumentParser]) -> None:
    """Fill in this module's command parsers (named in ``main.COMMANDS``)."""
    p_fuzz = parsers["fuzz"]
    p_fuzz.add_argument(
        "--budget",
        type=int,
        default=100,
        metavar="N",
        help="number of generated cases (default: 100)",
    )
    p_fuzz.add_argument(
        "--seed",
        type=int,
        default=0,
        help="stream seed; cases depend only on (seed, index)",
    )
    p_fuzz.add_argument(
        "--engine",
        action="append",
        choices=("all", "rounds") + FUZZ_ENGINES,
        help=(
            "engine(s) to round-robin (repeatable; default: all; "
            "'rounds' = rounds-rs + rounds-rws)"
        ),
    )
    p_fuzz.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the execution sweep (default: 1)",
    )
    p_fuzz.add_argument(
        "--run-dir",
        metavar="ROOT",
        help=(
            "write a content-addressed run directory under ROOT; its "
            "results/ store caches the campaign's cases, so a killed "
            "campaign re-invoked with the same budget/seed resumes"
        ),
    )
    p_fuzz.add_argument(
        "--out",
        metavar="DIR",
        help="write one replayable JSON per counterexample to DIR",
    )
    p_fuzz.add_argument(
        "--max-n",
        type=int,
        default=4,
        metavar="N",
        help="largest system size to generate (default: 4)",
    )
    p_fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failures without delta-debugging them",
    )
    p_fuzz.add_argument(
        "--frontier",
        metavar="FILE",
        help=(
            "sample cases from a saved model-checker frontier "
            "(`repro mc ... --save-frontier FILE`) instead of random "
            "generation: each case re-runs one deep reachable state "
            "with a fuzzed engine and extended horizon"
        ),
    )
    p_fuzz.set_defaults(func=_cmd_fuzz)
