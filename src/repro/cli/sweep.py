"""``repro sweep``: run a scenario space through the unified runtime.

Spaces come from the runtime catalogue (``repro sweep --list``); the
runner executes them serially or across a process pool, optionally
backed by the on-disk result cache, and can pipe every produced trace
through the trace oracle.  With ``--run-dir ROOT`` the sweep writes a
content-addressed run directory under ROOT (manifest, incremental
``metrics.jsonl``, ``progress.jsonl`` heartbeats, final
``summary.json`` with SLO verdicts) and uses its ``results/`` store as
the cache — killing the sweep and re-invoking it resumes, skipping
every completed cell; ``repro report`` renders the artifacts.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ConfigurationError
from repro.obs.artifacts import RunDir
from repro.obs.progress import ProgressReporter
from repro.obs.report import summarize_sweep
from repro.runtime import ResultCache, SPACE_FACTORIES, SweepRunner, space_by_name
from repro.runtime.request import batch_cache_keys
from repro.runtime.space import vectorized_space


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
    try:
        space = space_by_name(args.space, count=args.count, seed=args.seed)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.engine == "vector":
        # Imported here: naming the backend loads numpy, which a rounds
        # sweep never needs.
        from repro.vector.backend import backend_name

        space = vectorized_space(space)
        print(f"vector engine: {backend_name()} backend")

    run_dir = None
    reporter = None
    completed_before: set[str] = set()
    on_cell = None
    cache = args.cache_dir
    if args.run_dir is not None:
        requests = list(space.requests)
        # One hash per request: everything downstream — the run id, the
        # manifest, the store lookups, the summary — reads the memo.
        keys = batch_cache_keys(requests)
        run_dir = RunDir.open(
            args.run_dir,
            kind="sweep",
            name=space.name,
            identity=sorted(keys),
            cells=[(r.name, key) for r, key in zip(requests, keys)],
            config={
                "space": args.space,
                "count": args.count,
                "seed": args.seed,
                "check": bool(args.check),
                "engine": args.engine,
            },
        )
        cache = ResultCache(run_dir.results_dir)
        completed_before = cache.completed_keys()
        reporter = ProgressReporter(
            total=len(requests),
            path=run_dir.progress_path,
            stream=sys.stderr,
            label=space.name,
        ).start()

        def on_cell(request, result) -> None:
            profile = result.extra.get("profile") or {}
            run_dir.record_cell(
                name=request.name,
                key=result.request_key,
                cached=result.cached,
                engine=request.engine,
                algorithm=request.algorithm,
                latency=result.latency,
                num_rounds=result.num_rounds,
                events=len(result.events),
                duration_s=profile.get("duration_s"),
            )
            reporter.advance(cached=result.cached)

    runner = SweepRunner(
        jobs=args.jobs, cache=cache, check=args.check, on_cell=on_cell
    )
    try:
        result = runner.run(space)
    except BaseException:
        if run_dir is not None:
            run_dir.mark_interrupted()
        if reporter is not None:
            reporter.stop(status="interrupted")
        raise
    if run_dir is not None:
        summary = summarize_sweep(
            run_dir, result, completed_before=completed_before
        )
        run_dir.finalize(summary)
        reporter.stop()
    print(result.describe())
    if run_dir is not None:
        print(
            f"run artifacts: {run_dir.path} (inspect with `repro report`)"
        )
    if args.jsonl:
        count = result.write_merged_jsonl(args.jsonl)
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


def register(sub: argparse._SubParsersAction) -> None:
    """Attach this module's subcommands to the root parser."""
    p_sweep = sub.add_parser(
        "sweep",
        help="execute a scenario space (parallel, cached, checked)",
    )
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
    p_sweep.add_argument(
        "--engine",
        choices=("rounds", "vector"),
        default="rounds",
        help=(
            "retarget the space's rounds cells: 'vector' runs them on "
            "the columnar batch kernel (numpy-backed with the 'fast' "
            "extra, pure-Python otherwise; byte-identical traces)"
        ),
    )
    p_sweep.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="on-disk result cache; repeated sweeps execute 0 scenarios",
    )
    p_sweep.add_argument(
        "--run-dir",
        metavar="ROOT",
        help=(
            "write a content-addressed run directory under ROOT "
            "(manifest, metrics.jsonl, progress, summary.json); its "
            "results/ store doubles as the cache, so interrupted "
            "sweeps resume (overrides --cache-dir)"
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
