#!/usr/bin/env python
"""Roll ``benchmarks/metrics.jsonl`` into a committed summary report.

Usage::

    PYTHONPATH=src python scripts/bench_report.py [-o BENCH_PR13.json] [METRICS.jsonl]

Reads the per-span profiler breakdown the benchmark suite emits (one
JSON object per span: count/total/mean/max/p95, newer runs also carry
p50) and writes a stable, committed summary keyed by span name with
per-span ``count``, ``mean_s``, ``p50_s`` and ``p95_s``.  Older
metrics files without ``p50_s`` are accepted (the field is reported as
``null``), so the report can be regenerated from any run's output.

Also accepts a campaign *run directory* (or its ``metrics.jsonl``):
the per-cell and progress audit records interleaved there are skipped
rather than fatal, and a run that has not finalized yet (no
``summary.json``) yields a partial report flagged ``in_progress`` —
an overnight campaign must be reportable while it is still running.

The report also carries a cross-PR ``trajectory`` section: every
committed ``BENCH_*.json`` snapshot in the repo root is merged, and
each span seen by at least two snapshots gets its ``mean_s`` series in
snapshot order — the per-span performance history across the PR
sequence, so regressions show up as a step in the series rather than
by diffing snapshot files.  ``--no-trajectory`` skips it.  The scan
always covers the *repo root*, wherever ``-o`` points: the committed
snapshots live there, and scanning the output's own directory used to
render the trajectory empty for any out-of-tree output path.

Exits 0 on success, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_METRICS = REPO_ROOT / "benchmarks" / "metrics.jsonl"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_PR13.json"

#: Per-span fields copied into the report (missing ones become null).
FIELDS = ("count", "total_s", "mean_s", "p50_s", "p95_s", "max_s")


def load_spans(path: Path) -> tuple[dict[str, dict], int]:
    """``(spans, skipped)`` of a metrics JSONL file.

    Records without a span name — a run directory's per-cell audit
    lines and progress heartbeats — are counted and skipped, never
    fatal: the same ``metrics.jsonl`` file name serves both the bench
    suite and campaign run directories.
    """
    spans: dict[str, dict] = {}
    skipped = 0
    with open(path, encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}")
            name = record.get("span")
            if not isinstance(name, str):
                skipped += 1
                continue
            spans[name] = {field: record.get(field) for field in FIELDS}
    return spans, skipped


def build_report(spans: dict[str, dict], source: str) -> dict:
    report = {
        "source": source,
        "num_spans": len(spans),
        "spans": {name: spans[name] for name in sorted(spans)},
    }
    # Surface the unified-runtime breakdown as its own section so sweep
    # regressions stand out without digging through the flat span map.
    sweep = {
        name: spans[name]
        for name in sorted(spans)
        if name.startswith("runtime.sweep")
    }
    if sweep:
        report["sweep_timings"] = sweep
    # Same treatment for the live asyncio runtime's spans: wall-clock
    # figures for real runs (CLI invocations, harness executions and
    # the load benchmarks) grouped under one key.
    live = {
        name: spans[name]
        for name in sorted(spans)
        if name.startswith("live.")
    }
    if live:
        report["live_timings"] = live
    # The columnar engine's spans plus the derived per-batch speedups:
    # bench_vector.py records paired vector.bench.object.bN /
    # vector.bench.batch.bN spans over identical workloads, so the
    # ratio of their means is the scenario-throughput multiplier of
    # batching at size N.
    vector = {
        name: spans[name]
        for name in sorted(spans)
        if name.startswith("vector.")
    }
    if vector:
        report["vector_timings"] = vector
        speedups = vector_speedups(spans)
        if speedups:
            report["vector_speedup_vs_object"] = speedups
    # The model checker's spans plus derived throughput: bench_mc.py
    # records exploration timings per reduction mode alongside
    # mc.bench.stats.<mode>.<counter> spans whose sample values are raw
    # frontier counters, from which states/sec, prune ratios and the
    # reduced-vs-unreduced cost ratio are computed here.
    mc = {
        name: spans[name]
        for name in sorted(spans)
        if name.startswith("mc.") and not name.startswith("mc.bench.stats.")
    }
    if mc:
        report["mc_timings"] = {"spans": mc, **mc_derived(spans)}
    return report


def _mc_counter(spans: dict[str, dict], mode: str, counter: str) -> float | None:
    """A frontier counter smuggled through a stats span's mean sample."""
    stats = spans.get(f"mc.bench.stats.{mode}.{counter}")
    if stats is None:
        return None
    return stats.get("mean_s")


def mc_derived(spans: dict[str, dict]) -> dict:
    """States/sec, prune ratios and the reduction cost ratio."""
    derived: dict[str, dict] = {}
    rates: dict[str, float] = {}
    prunes: dict[str, dict[str, float]] = {}
    for mode in ("reduced", "unreduced", "n6t2"):
        explore_span = spans.get(f"mc.bench.explore.{mode}")
        visited = _mc_counter(spans, mode, "states_visited")
        generated = _mc_counter(spans, mode, "states_generated")
        revisits = _mc_counter(spans, mode, "revisit_pruned")
        dominated = _mc_counter(spans, mode, "dominance_pruned")
        choices = _mc_counter(spans, mode, "choices_explored")
        if explore_span and explore_span.get("mean_s") and generated:
            rates[mode] = round(generated / explore_span["mean_s"], 1)
        ratios: dict[str, float] = {}
        if generated and revisits is not None:
            ratios["revisit"] = round(revisits / generated, 3)
        if choices and dominated is not None:
            ratios["dominance"] = round(dominated / (choices + dominated), 3)
        if ratios:
            prunes[mode] = ratios
    if rates:
        derived["states_per_s"] = rates
    if prunes:
        derived["prune_ratios"] = prunes
    reduced = spans.get("mc.bench.explore.reduced")
    unreduced = spans.get("mc.bench.explore.unreduced")
    if (
        reduced
        and unreduced
        and reduced.get("mean_s")
        and unreduced.get("mean_s")
    ):
        derived["unreduced_vs_reduced_cost"] = round(
            unreduced["mean_s"] / reduced["mean_s"], 2
        )
    return derived


def vector_speedups(spans: dict[str, dict]) -> dict[str, float]:
    """``batch label -> object_mean / batch_mean`` for paired bench spans."""
    speedups: dict[str, float] = {}
    prefix = "vector.bench.object."
    for name in sorted(spans):
        if not name.startswith(prefix):
            continue
        label = name[len(prefix):]
        twin = spans.get(f"vector.bench.batch.{label}")
        if twin is None:
            continue
        object_mean = spans[name].get("mean_s")
        batch_mean = twin.get("mean_s")
        if not object_mean or not batch_mean:
            continue
        speedups[label] = round(object_mean / batch_mean, 2)
    return speedups


def load_snapshots(root: Path, skip: Path | None = None) -> dict[str, dict]:
    """Committed ``BENCH_*.json`` snapshots, keyed by label, name order.

    ``skip`` excludes the output being (re)written so the trajectory
    only covers *prior* snapshots plus the fresh spans appended by the
    caller.  Unreadable snapshots are skipped — a half-written file
    must not break report generation.
    """
    snapshots: dict[str, dict] = {}
    for path in sorted(root.glob("BENCH_*.json")):
        if skip is not None and path.resolve() == skip.resolve():
            continue
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        spans = data.get("spans")
        if isinstance(spans, dict):
            snapshots[path.stem] = spans
    return snapshots


def build_trajectory(snapshots: dict[str, dict]) -> dict | None:
    """The cross-snapshot ``mean_s`` series of every shared span."""
    if len(snapshots) < 2:
        return None
    labels = list(snapshots)
    seen: dict[str, int] = {}
    for spans in snapshots.values():
        for name in spans:
            seen[name] = seen.get(name, 0) + 1
    shared = sorted(name for name, count in seen.items() if count >= 2)
    if not shared:
        return None
    return {
        "snapshots": labels,
        "mean_s": {
            name: [
                (snapshots[label].get(name) or {}).get("mean_s")
                for label in labels
            ]
            for name in shared
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "metrics",
        nargs="?",
        default=str(DEFAULT_METRICS),
        help="metrics JSONL emitted by the benchmark suite",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=str(DEFAULT_OUTPUT),
        help="where to write the summary (default: BENCH_PR13.json)",
    )
    parser.add_argument(
        "--no-trajectory",
        action="store_true",
        help="skip the cross-PR trajectory over committed BENCH_*.json",
    )
    args = parser.parse_args(argv)
    metrics_path = Path(args.metrics)
    run_dir: Path | None = None
    if metrics_path.is_dir():
        run_dir = metrics_path
        metrics_path = metrics_path / "metrics.jsonl"
    elif (
        metrics_path.name == "metrics.jsonl"
        and (metrics_path.parent / "manifest.json").exists()
    ):
        run_dir = metrics_path.parent
    try:
        spans, skipped = load_spans(metrics_path)
    except OSError as exc:
        if run_dir is not None and not metrics_path.exists():
            # A run dir before its first completed cell: metrics.jsonl
            # is appended lazily, so "no file yet" is just the emptiest
            # form of in-progress, not an error.
            spans, skipped = {}, 0
        else:
            print(f"cannot read {metrics_path}: {exc}", file=sys.stderr)
            return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    report = build_report(spans, metrics_path.name)
    if skipped:
        report["skipped_records"] = skipped
    if run_dir is not None:
        in_progress = not (run_dir / "summary.json").exists()
        report["in_progress"] = in_progress
        if in_progress:
            print(
                f"note: {run_dir} has no summary.json yet — partial "
                "report (campaign in progress or interrupted)",
                file=sys.stderr,
            )
    output = Path(args.output)
    if not args.no_trajectory:
        snapshots = load_snapshots(REPO_ROOT, skip=output)
        snapshots[output.stem] = report["spans"]
        trajectory = build_trajectory(snapshots)
        if trajectory is not None:
            report["trajectory"] = trajectory
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output} ({len(spans)} spans)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
