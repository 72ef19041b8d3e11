"""``repro serve`` / ``repro work``: the sharded campaign fabric CLI.

``repro serve SPACE`` starts the coordinator: it plans leased shards
over the space's not-yet-completed cells, answers workers on a local
HTTP API, merges their results into a content-addressed run directory,
and finalizes the same ``summary.json`` a single-process ``repro
sweep`` would.  The run directory (and therefore the run id, the
result store, and the merged trace) is *identical* to ``repro sweep
SPACE --run-dir ROOT`` — the two commands resume each other.

``repro work --connect HOST:PORT`` starts one worker loop: claim a
shard, execute it through the unified runtime, stream the results
back, repeat until the coordinator reports the campaign done (or
disappears, which is not an error — the submitted work is durable).

The coordinator writes ``serve.json`` (URL + pid) into the run
directory so scripts can discover an ephemeral ``--port 0`` endpoint.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.cli.common import jobs_ok
from repro.errors import ConfigurationError
from repro.runtime import SPACE_FACTORIES, space_by_name
from repro.runtime.space import ScenarioSpace, vectorized_space
from repro.runtime.sweep import open_merged_sink
from repro.serve.coordinator import Coordinator
from repro.serve.api import CoordinatorServer
from repro.serve.worker import run_worker

#: The synthetic space name that serves a fuzz stream instead of a
#: registered space ("campaign-over-serve").
FUZZ_SPACE = "fuzz"


def _build_space(args: argparse.Namespace) -> ScenarioSpace:
    if args.space.startswith("mc:"):
        # A model-checking frontier (repro mc prints the exact spec):
        # the coordinator rebuilds cell-for-cell the space the solo
        # `repro mc --run-dir` run executes, so the two resume each
        # other.
        from repro.mc import mc_space_from_spec

        return mc_space_from_spec(args.space)
    if args.space == FUZZ_SPACE:
        from repro.fuzz.strategies import fuzz_stream_space

        return fuzz_stream_space(
            budget=args.count if args.count is not None else 16,
            seed=args.seed if args.seed is not None else 42,
        )
    space = space_by_name(args.space, count=args.count, seed=args.seed)
    if args.engine == "vector":
        space = vectorized_space(space)
    return space


def _cmd_serve(args: argparse.Namespace) -> int:
    sink = None
    try:
        space = _build_space(args)
        if args.jsonl:
            sink = open_merged_sink(args.jsonl)
        coordinator = Coordinator(
            space,
            run_root=args.run_dir,
            shard_size=args.shard_size,
            lease_ttl=args.lease_ttl,
            check=args.check,
        )
    except ConfigurationError as exc:
        if sink is not None:
            sink.close()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run_dir = coordinator.run_dir
    coordinator.leg.reporter.stream = sys.stderr

    with coordinator.leg:
        server = CoordinatorServer(
            coordinator, host=args.host, port=args.port
        ).start()
        try:
            (run_dir.path / "serve.json").write_text(
                json.dumps(
                    {
                        "url": server.url,
                        "run_id": run_dir.run_id,
                        "space": space.name,
                    },
                    sort_keys=True,
                )
                + "\n",
                encoding="utf-8",
            )
            print(f"serving {space.name} at {server.url}", file=sys.stderr)
            print(f"run artifacts: {run_dir.path}", file=sys.stderr)
            while not coordinator.is_complete():
                time.sleep(0.2)
            result, _summary = coordinator.finalize()
            # Grace period: workers that were mid-claim when the last
            # shard merged still get their clean {"done": true} answer.
            time.sleep(args.linger_s)
        finally:
            server.shutdown()
    print(result.describe())
    if (sharing := result.describe_sharing()) is not None:
        print(sharing, file=sys.stderr)
    print(f"run artifacts: {run_dir.path} (inspect with `repro report`)")
    if sink is not None:
        try:
            count = result.write_merged_jsonl(sink)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {count} merged events to {args.jsonl}")
    if args.check and not result.checks_ok:
        return 1
    return 0


def _cmd_work(args: argparse.Namespace) -> int:
    if not jobs_ok(args.jobs):
        return 2
    stats = run_worker(
        args.connect,
        worker_id=args.worker_id,
        jobs=args.jobs,
        throttle_s=args.throttle_s,
        max_shards=args.max_shards,
        connect_timeout_s=args.connect_timeout,
        log=lambda message: print(message, file=sys.stderr),
    )
    print(
        f"worker {stats['worker_id']}: {stats['shards']} shard(s), "
        f"{stats['cells']} cell(s) merged ({stats['reason']})"
    )
    # "disconnected" is a normal end: the coordinator finishes and goes
    # away while late workers are still polling.  Only a rejected claim
    # is a caller error.
    return 0 if stats["reason"] != "rejected" else 1


def register(parsers: dict[str, argparse.ArgumentParser]) -> None:
    """Fill in this module's command parsers (named in ``main.COMMANDS``)."""
    p_serve = parsers["serve"]
    p_serve.add_argument(
        "space",
        help=(
            f"one of {sorted(SPACE_FACTORIES)}, '{FUZZ_SPACE}' to "
            "serve a fuzz stream (--count cases of --seed), or an "
            "'mc:...' spec (printed by repro mc) to serve a "
            "model-checking frontier"
        ),
    )
    p_serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (default: 0 = ephemeral; see serve.json)",
    )
    p_serve.add_argument(
        "--run-dir",
        metavar="ROOT",
        default="runs",
        help=(
            "runs root for the content-addressed run directory "
            "(default: runs); shared with `repro sweep --run-dir`"
        ),
    )
    p_serve.add_argument(
        "--engine",
        choices=("rounds", "vector"),
        default="rounds",
        help="retarget rounds cells at the columnar vector engine",
    )
    p_serve.add_argument(
        "--shard-size",
        type=int,
        default=16,
        metavar="N",
        help="cells per leased shard (default: 16)",
    )
    p_serve.add_argument(
        "--lease-ttl",
        type=float,
        default=60.0,
        metavar="S",
        help="seconds before an unsubmitted lease re-queues (default: 60)",
    )
    p_serve.add_argument(
        "--check",
        action="store_true",
        help="run the trace oracle over every merged cell at finalize",
    )
    p_serve.add_argument(
        "--jsonl",
        metavar="PATH",
        help="write the merged (deterministic) campaign trace to PATH",
    )
    p_serve.add_argument(
        "--count",
        type=int,
        help="cells per random stream / fuzz budget (stream spaces only)",
    )
    p_serve.add_argument(
        "--seed",
        type=int,
        help="stream seed (stream spaces only)",
    )
    p_serve.add_argument(
        "--linger-s",
        type=float,
        default=1.0,
        metavar="S",
        help="seconds to keep answering after the last shard merges",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_work = parsers["work"]
    p_work.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address (see the run directory's serve.json)",
    )
    p_work.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="processes for vector batch chunks within a shard",
    )
    p_work.add_argument(
        "--worker-id",
        help="lease attribution label (default: host-pid)",
    )
    p_work.add_argument(
        "--throttle-s",
        type=float,
        default=0.0,
        metavar="S",
        help="sleep between chunks (fault-injection/smoke pacing)",
    )
    p_work.add_argument(
        "--max-shards",
        type=int,
        metavar="N",
        help="stop after N shards (fault-injection/smoke pacing)",
    )
    p_work.add_argument(
        "--connect-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="seconds to wait for the coordinator to appear (default: 30)",
    )
    p_work.set_defaults(func=_cmd_work)
