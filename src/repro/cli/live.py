"""``repro live``: run a real asyncio cluster from a shell.

Spins up ``n`` processes as tasks over the in-process transport with a
chosen network fault profile, builds P (or ◊P) from heartbeats, runs
the selected algorithm over live channels, and reports decisions,
throughput and detector quality.  ``--check`` serializes the run's
trace into logical order and pipes it through the PR-2 trace oracle;
``--load N`` runs N consensus sessions over one cluster for a
throughput figure; ``--run-dir ROOT`` writes the run's artifacts
(per-session metrics, progress heartbeats, latency percentiles and
live SLO verdicts) for ``repro report``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ConfigurationError, ExecutionError
from repro.live import (
    DetectorConfig,
    LiveCluster,
    LiveConfig,
    NET_PROFILES,
    profile_by_name,
)
from repro.live.cluster import LIVE_ALGORITHMS
from repro.obs import Profiler, get_profiler, set_profiler
from repro.obs.artifacts import DEFAULT_LIVE_SLO
from repro.obs.check import check_events
from repro.obs.events import EventLog, logical_clock
from repro.obs.profile import profiled
from repro.obs.report import summarize_live
from repro.runtime.campaign import CampaignLeg


def _parse_values(args: argparse.Namespace) -> tuple[int, ...]:
    if args.values is not None:
        try:
            return tuple(int(v) for v in args.values.split(","))
        except ValueError:
            raise ConfigurationError(
                f"--values must be comma-separated integers, got "
                f"{args.values!r}"
            )
    # Default: an adversarial-ish binary split over n processes.
    return tuple(pid % 2 for pid in range(args.n))


def _parse_crashes(specs: list[str]) -> tuple[tuple[int, float], ...]:
    crashes = []
    for spec in specs:
        try:
            pid_text, ms_text = spec.split("@", 1)
            crashes.append((int(pid_text), float(ms_text) / 1000.0))
        except ValueError:
            raise ConfigurationError(
                f"--crash takes PID@MILLISECONDS (e.g. 1@30), got {spec!r}"
            )
    return tuple(crashes)


def _append_metrics(path: str, profiler: Profiler) -> None:
    """Append this invocation's span breakdown in metrics.jsonl form."""
    with open(path, "a", encoding="utf-8") as fp:
        for name, stats in profiler.snapshot().items():
            fp.write(json.dumps({"span": name, **stats}) + "\n")


def _cmd_live(args: argparse.Namespace) -> int:
    try:
        config = LiveConfig(
            algorithm=args.algorithm,
            values=_parse_values(args),
            profile=profile_by_name(args.net_profile),
            t=args.t,
            detector=DetectorConfig(kind=args.detector),
            crash_at=_parse_crashes(args.crash or []),
            max_rounds=args.max_rounds,
            seed=args.seed,
            sessions=args.load,
            concurrency=args.concurrency,
            timeout_s=args.timeout,
        )
        # Live runs are wall-clock: the identity is the configuration,
        # not result hashes — re-invoking the same config re-attaches to
        # the same run directory as a new leg.
        identity = {
            "algorithm": config.algorithm,
            "values": list(config.values),
            "profile": config.profile.name,
            "t": config.t,
            "detector": [config.detector.kind, config.detector.interval_s,
                         config.detector.miss_threshold, config.detector.backoff],
            "crash_at": [list(crash) for crash in config.crash_at],
            "max_rounds": config.max_rounds,
            "seed": config.seed,
            "sessions": config.sessions,
        }
        leg = CampaignLeg(
            args.run_dir,
            kind="live",
            name=f"live-{config.profile.name}-{config.algorithm}",
            config=identity,
            sessions=config.sessions,
            slo=DEFAULT_LIVE_SLO,
            label=f"live-{config.profile.name}",
            stream=sys.stderr,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with leg:
        return _run_live(args, config, leg)


def _run_live(
    args: argparse.Namespace, config: LiveConfig, leg: CampaignLeg
) -> int:
    """Run the cluster, report, and finalize ``leg``."""
    own_profiler = get_profiler() is None
    if own_profiler:
        set_profiler(Profiler())
    try:
        with profiled(f"live.cli.{config.profile.name}.{config.algorithm}"):
            run = LiveCluster(config, on_session_done=leg.on_session).run()
    except ExecutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2  # unfinalized: the leg closes as interrupted
    finally:
        profiler = get_profiler()
        if own_profiler:
            set_profiler(None)

    stats = run.stats_dict()
    print(
        f"live {config.algorithm} on {config.profile.name} "
        f"({config.n} processes, detector {config.detector.kind}, "
        f"seed {config.seed}):"
    )
    print(
        f"  sessions {stats['sessions_completed']}/{stats['sessions']} "
        f"complete in {stats['duration_s'] * 1000:.1f} ms "
        f"({stats['decisions']} decisions, "
        f"{stats['decisions_per_s']:.0f}/s)"
    )
    for pid, (round_index, value) in sorted(run.decisions.items()):
        print(f"  p{pid} decided {value!r} (round {round_index})")
    for pid, at_s in sorted(run.crash_walls.items()):
        print(f"  p{pid} crashed at {at_s * 1000:.1f} ms")
    quality = stats["detector_quality"]
    print(
        f"  detector: {quality['suspicions']} suspicion(s), "
        f"{quality['false_suspicions']} false, "
        f"{quality['refutations']} refuted"
    )
    delays = quality.get("detection_delay_ms") or {}
    if delays.get("mean") is not None:
        print(
            f"  detection delay: mean {delays['mean']:.1f} ms, "
            f"max {delays['max']:.1f} ms"
        )
    transport = stats["transport"]
    print(
        f"  transport: {transport['delivered']} delivered / "
        f"{transport['attempts']} attempts "
        f"({transport['dropped']} dropped, {transport['severed']} severed, "
        f"{transport['retransmits']} retransmits)"
    )

    if args.metrics and profiler is not None:
        _append_metrics(args.metrics, profiler)
        print(f"appended span metrics to {args.metrics}")

    exit_code = 0
    oracle_failed = None
    log = None
    if args.check or args.jsonl or leg.path is not None:
        log = EventLog(clock=logical_clock())
        run.replay_into(log)
        if args.jsonl:
            with open(args.jsonl, "w", encoding="utf-8") as fp:
                for event in log.events:
                    fp.write(event.to_json() + "\n")
            print(f"wrote {len(log.events)} events to {args.jsonl}")
        if args.check:
            report = check_events(
                log.events, model="RWS", initial_values=config.values
            )
            print(report.describe())
            oracle_failed = 0 if report.ok else len(report.errors)
            if not report.ok:
                exit_code = 1

    summary = leg.finalize(
        lambda run_dir: summarize_live(
            run_dir,
            stats,
            session_latencies_ms=run.session_latencies_ms(),
            detection_delays_ms=run.detection_delays_ms(),
            oracle_failed=oracle_failed,
            extra_spans=profiler.snapshot() if profiler is not None else None,
            events=log.events,
        )
    )
    if summary is not None:
        print(f"run artifacts: {leg.path} (inspect with `repro report`)")
        if any(not v.get("ok") for v in summary.get("slo_verdicts", ())):
            exit_code = exit_code or 1
    return exit_code


def register(parsers: dict[str, argparse.ArgumentParser]) -> None:
    """Fill in this module's command parsers (named in ``main.COMMANDS``)."""
    p_live = parsers["live"]
    p_live.add_argument(
        "--algorithm",
        choices=LIVE_ALGORITHMS,
        default="floodset",
        help="algorithm to run over live channels (default: floodset)",
    )
    p_live.add_argument(
        "--net-profile",
        choices=tuple(sorted(NET_PROFILES)),
        default="lan",
        help="network fault profile (default: lan)",
    )
    p_live.add_argument(
        "--detector",
        choices=("p", "ep"),
        default="p",
        help="heartbeat detector flavour: perfect or eventually perfect",
    )
    p_live.add_argument(
        "--n",
        type=int,
        default=4,
        metavar="N",
        help="cluster size when --values is not given (default: 4)",
    )
    p_live.add_argument(
        "--values",
        metavar="V0,V1,...",
        help="comma-separated initial values (overrides --n)",
    )
    p_live.add_argument(
        "--t",
        type=int,
        default=1,
        help="resilience parameter (default: 1)",
    )
    p_live.add_argument(
        "--crash",
        action="append",
        metavar="PID@MS",
        help="crash PID at MS milliseconds after start (repeatable)",
    )
    p_live.add_argument(
        "--max-rounds",
        type=int,
        default=4,
        metavar="R",
        help="round horizon for the round adapter (default: 4)",
    )
    p_live.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the transport's drop/delay draws (default: 0)",
    )
    p_live.add_argument(
        "--load",
        type=int,
        default=1,
        metavar="N",
        help="run N consensus sessions over one cluster (default: 1)",
    )
    p_live.add_argument(
        "--concurrency",
        type=int,
        default=8,
        metavar="N",
        help="sessions in flight at once under --load (default: 8)",
    )
    p_live.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="hard wall-clock bound on the run in seconds (default: 30)",
    )
    p_live.add_argument(
        "--check",
        action="store_true",
        help="serialize the trace and run the trace oracle over it",
    )
    p_live.add_argument(
        "--jsonl",
        metavar="PATH",
        help="write the serialized trace to PATH",
    )
    p_live.add_argument(
        "--metrics",
        metavar="PATH",
        help="append this run's profiler span breakdown to PATH (JSONL)",
    )
    p_live.add_argument(
        "--run-dir",
        metavar="ROOT",
        help=(
            "write a content-addressed run directory under ROOT "
            "(per-session metrics, heartbeats, latency percentiles, "
            "live SLO verdicts); same config re-attaches as a new leg"
        ),
    )
    p_live.set_defaults(func=_cmd_live)
