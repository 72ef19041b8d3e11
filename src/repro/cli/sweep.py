"""``repro sweep``: run a scenario space through the unified runtime.

Spaces come from the runtime catalogue (``repro sweep --list``); the
runner executes them serially or across a process pool and can pipe
every produced trace through the trace oracle.  With ``--run-dir
ROOT`` the sweep writes a content-addressed run directory under ROOT
(manifest, incremental ``metrics.jsonl``, ``progress.jsonl``
heartbeats, final ``summary.json`` with SLO verdicts) and uses its
``results/`` store as the cache — killing the sweep and re-invoking it
resumes, skipping every completed cell; ``repro report`` renders the
artifacts.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Any

from repro.cli.common import jobs_ok
from repro.errors import ConfigurationError
from repro.runtime import SPACE_FACTORIES, SweepRunner, space_by_name
from repro.runtime.campaign import CampaignLeg
# Called through this module global: the ledger's tracer wraps it here
# (ROADMAP 8(a)).
from repro.runtime.space import vectorized_space
from repro.runtime.sweep import open_merged_sink

if TYPE_CHECKING:
    from repro.obs.artifacts import RunDir
    from repro.runtime.sweep import SweepResult


def summarize_sweep(
    run_dir: RunDir, sweep: SweepResult, *, completed_before: set[str]
) -> dict[str, Any]:
    """:func:`repro.obs.report.summarize_sweep`, imported when a leg
    finalises: a sweep without ``--run-dir`` never loads the report layer."""
    from repro.obs.report import summarize_sweep as summarize

    return summarize(run_dir, sweep, completed_before=completed_before)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.list:
        for name in sorted(SPACE_FACTORIES):
            print(name)
        return 0
    if args.space is None:
        print(
            f"error: provide a space name (one of {sorted(SPACE_FACTORIES)})"
            " or --list",
            file=sys.stderr,
        )
        return 2
    if not jobs_ok(args.jobs):
        return 2
    sink = None
    try:
        space = space_by_name(args.space, count=args.count, seed=args.seed)
        if args.engine == "vector":
            space = vectorized_space(space)
        # Before the run directory exists and before any cell runs: a
        # trace nobody can write is a usage error, not a late crash.
        if args.jsonl:
            sink = open_merged_sink(args.jsonl)
        leg = CampaignLeg(
            args.run_dir,
            kind="sweep",
            name=space.name,
            requests=space.requests,
            config={
                "space": args.space,
                "count": args.count,
                "seed": args.seed,
                "check": bool(args.check),
                "engine": args.engine,
            },
            stream=sys.stderr,
        )
    except ConfigurationError as exc:
        if sink is not None:
            sink.close()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with leg:
        result = SweepRunner(
            jobs=args.jobs,
            cache=leg.cache,
            check=args.check,
            on_run=leg.on_run,
        ).run(space, keys=leg.keys)
        leg.finalize(
            lambda run_dir: summarize_sweep(
                run_dir, result, completed_before=leg.completed_before
            )
        )
    print(result.describe())
    if (sharing := result.describe_sharing()) is not None:
        print(sharing, file=sys.stderr)
    if leg.path is not None:
        print(f"run artifacts: {leg.path} (inspect with `repro report`)")
    if sink is not None:
        try:
            count = result.write_merged_jsonl(sink)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {count} merged events to {args.jsonl}")
    if args.space == "e10-lambda":
        print("latency (best, worst) per algorithm over failure-free runs:")
        for name, (best, worst) in sorted(
            result.latency_by_algorithm().items()
        ):
            worst_text = "undecided" if worst is None else str(worst)
            print(f"  {name}: best={best}, worst(Λ)={worst_text}")
    if args.check and not result.checks_ok:
        return 1
    return 0


def register(parsers: dict[str, argparse.ArgumentParser]) -> None:
    """Fill in this module's command parsers (named in ``main.COMMANDS``)."""
    p_sweep = parsers["sweep"]
    p_sweep.add_argument(
        "space",
        nargs="?",
        help=f"one of {sorted(SPACE_FACTORIES)}",
    )
    p_sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default: 1, serial)",
    )
    # ``vector`` stays while the ledger's campaigns pass it (ROADMAP 8(h)).
    p_sweep.add_argument(
        "--engine",
        choices=("rounds", "vector"),
        default="rounds",
        help=(
            "'vector' is a second name for the rounds engine: the same "
            "traces under their own cache keys and run ids"
        ),
    )
    p_sweep.add_argument(
        "--run-dir",
        metavar="ROOT",
        help=(
            "write a content-addressed run directory under ROOT "
            "(manifest, metrics.jsonl, progress, summary.json); its "
            "results/ store doubles as the cache, so repeated and "
            "interrupted sweeps resume"
        ),
    )
    p_sweep.add_argument(
        "--check",
        action="store_true",
        help="run the trace oracle over every cell's trace",
    )
    p_sweep.add_argument(
        "--jsonl",
        metavar="PATH",
        help="write the merged (deterministic) sweep trace to PATH",
    )
    p_sweep.add_argument(
        "--count",
        type=int,
        help="cells per random stream (stream-based spaces only)",
    )
    p_sweep.add_argument(
        "--seed",
        type=int,
        help="stream seed (stream-based spaces only)",
    )
    p_sweep.add_argument(
        "--list",
        action="store_true",
        help="list the registered scenario spaces and exit",
    )
    p_sweep.set_defaults(func=_cmd_sweep)
