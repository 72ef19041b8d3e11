"""Campaign summaries and the ``repro report`` terminal dashboard.

This module turns a run directory's raw facts — the manifest, the
per-cell ``metrics.jsonl`` audit log, per-cell span snapshots — into
the ``summary.json`` verdict document, validates that document's
schema, and renders both as a terminal dashboard:

* coverage over the scenario space's cells (total and per engine);
* resume counters (``completed_before`` / ``re_executed``) — the proof
  that a restarted campaign executed only what the first leg left;
* cache telemetry (hits, misses, corrupt-entry evictions);
* a flamegraph-style tree of aggregated profiler spans;
* the SLO verdicts the summary was judged with;
* the top-k slowest cells.

The builders are duck-typed over the runtime's ``SweepResult`` (and
the fuzz report) rather than importing them: ``repro.obs``
is the substrate those layers build on, and must not import back up
the stack.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.obs.artifacts import (
    RUN_KINDS,
    RUN_SCHEMA,
    RunDir,
    evaluate_slos,
)

if TYPE_CHECKING:
    from repro.obs.template import TemplateEvents

#: Span-aggregate fields that fold exactly across snapshots.
_FOLDABLE = ("count", "total_s", "max_s")


def merge_span_snapshots(
    snapshots: Iterable[Mapping[str, Mapping[str, Any]] | None],
) -> dict[str, dict[str, Any]]:
    """Fold per-cell profiler snapshots into one span aggregate.

    Counts and totals add, maxima take the max, and the mean is
    recomputed from the folded figures.  Percentile fields are dropped:
    they cannot be folded from summaries, and the per-cell snapshots
    remain on the results for anyone who needs the distribution.
    """
    merged: dict[str, dict[str, Any]] = {}
    for snapshot in snapshots:
        if not snapshot:
            continue
        for name, stats in snapshot.items():
            slot = merged.setdefault(
                name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
            )
            slot["count"] += int(stats.get("count", 0) or 0)
            slot["total_s"] += float(stats.get("total_s", 0.0) or 0.0)
            slot["max_s"] = max(slot["max_s"], float(stats.get("max_s", 0.0) or 0.0))
    for slot in merged.values():
        slot["mean_s"] = slot["total_s"] / slot["count"] if slot["count"] else 0.0
    return merged


def causal_cells(
    named_events: Iterable[tuple[str, TemplateEvents]],
) -> dict[str, Any] | None:
    """Fold per-cell causal analyses into one summary block.

    For every cell with a trace: the max critical-path hop count and
    the Λ-bound anomalies (:func:`repro.obs.critical.verify_round_paths`).

    None of the kept facts depends on a decided value, so each cell's
    trace (a result's :class:`~repro.obs.template.TemplateEvents`) is
    analyzed once per :class:`~repro.obs.template.TraceTemplate`.
    """
    cells: list[dict[str, Any]] = []
    anomaly_cells: list[str] = []
    for name, events in named_events:
        if not events:
            continue
        template = events.template
        facts = template.remember(
            "causal", lambda: _causal_facts(template.events)
        )
        if facts["anomalies"]:
            anomaly_cells.append(name)
        cells.append({"cell": name, **facts})
    if not cells:
        return None
    return {"cells": cells, "anomaly_cells": anomaly_cells}


def _causal_facts(events: Sequence[Any]) -> dict[str, Any]:
    """The value-free slice of one trace's causal summary."""
    from repro.obs.critical import causal_summary

    summary = causal_summary(events)
    return {
        "max_path_length": summary["max_path_length"],
        "anomalies": summary["anomalies"],
    }


def coverage_over_cells(
    planned: Sequence[tuple[str, str]],
    completed_keys: set[str],
    engines_by_key: Mapping[str, str] | None = None,
) -> dict[str, Any]:
    """Coverage of a planned cell list: total and per engine."""
    total = len(planned)
    done = sum(1 for _, key in planned if key in completed_keys)
    coverage: dict[str, Any] = {
        "planned": total,
        "completed": done,
        "fraction": round(done / total, 6) if total else 1.0,
    }
    if engines_by_key:
        by_engine: dict[str, dict[str, int]] = {}
        for _, key in planned:
            engine = engines_by_key.get(key, "?")
            slot = by_engine.setdefault(engine, {"planned": 0, "completed": 0})
            slot["planned"] += 1
            if key in completed_keys:
                slot["completed"] += 1
        coverage["by_engine"] = by_engine
    return coverage


# ---------------------------------------------------------------------------
# Summary builders (duck-typed over the runtime's result objects)
# ---------------------------------------------------------------------------


def summarize_sweep(
    run: RunDir,
    sweep_result: Any,
    *,
    completed_before: set[str],
) -> dict[str, Any]:
    """The ``summary.json`` document of one sweep (or fuzz-sweep) leg.

    ``completed_before`` are the request keys already on disk when this
    leg started; intersecting them with the keys this leg *executed*
    (rather than served from cache) yields ``re_executed`` — the
    counter the resume acceptance test pins to zero.
    """
    requests = list(sweep_result.requests)
    results = list(sweep_result.results)
    # Every result holds its request's key: nothing here asks again.
    keys = [result.request_key for result in results]
    executed_keys = {
        key
        for key, result in zip(keys, results)
        if not getattr(result, "cached", False)
    }
    planned = [(request.name, key) for request, key in zip(requests, keys)]
    engines_by_key = {key: request.engine for request, key in zip(requests, keys)}
    # The leg holds a result for every planned cell, so coverage needs
    # no second listing of the store.
    completed_now = set(keys)

    coverage = coverage_over_cells(planned, completed_now, engines_by_key)
    # How many runs stood behind the cells as this leg saw them: equal
    # cells it executed are one, a cell it found stored counts itself.
    coverage["distinct"] = getattr(sweep_result, "distinct", len(requests))

    summary: dict[str, Any] = {
        "schema": RUN_SCHEMA,
        "run_id": run.run_id,
        "kind": run.kind,
        "space": sweep_result.space_name,
        "coverage": coverage,
        "resume": {
            "completed_before": len(completed_before),
            "executed": sweep_result.executed,
            "cached": sweep_result.cached,
            "re_executed": len(completed_before & executed_keys),
        },
        "latency_by_algorithm": {
            name: {"best": best, "worst": worst}
            for name, (best, worst) in sorted(
                sweep_result.latency_by_algorithm().items()
            )
        },
    }

    cache = getattr(sweep_result, "cache_stats", None)
    if cache is not None:
        summary["cache"] = dict(cache)

    checks = getattr(sweep_result, "checks", None)
    if checks is not None:
        failed = [check.name for check in checks if not check.ok]
        summary["oracle"] = {
            "checked": len(checks),
            # Oracle runs behind the verdicts: cells that read alike
            # share one (runtime.sweep.SweepResult.aggregate).
            "judged": sweep_result.judged,
            "failed": len(failed),
            "failed_cells": failed,
        }

    spans = merge_span_snapshots(
        (result.extra.get("profile") or {}).get("spans")
        for result in results
    )
    if spans:
        summary["spans"] = spans

    durations = [
        {
            "cell": request.name,
            "duration_s": round(result.extra["profile"]["duration_s"], 6),
        }
        for request, result in zip(requests, results)
        if not getattr(result, "cached", False)
        and isinstance(result.extra.get("profile"), dict)
        and result.extra["profile"].get("duration_s") is not None
    ]
    durations.sort(key=lambda entry: entry["duration_s"], reverse=True)
    summary["slowest_cells"] = durations[:10]

    causal = causal_cells(
        (request.name, getattr(result, "events", None) or [])
        for request, result in zip(requests, results)
    )
    if causal is not None:
        summary["causal"] = causal

    summary["slo_verdicts"] = evaluate_slos(run.slo, summary)
    return summary


def summarize_fuzz(
    run: RunDir,
    fuzz_report: Any,
    sweep_result: Any,
    *,
    completed_before: set[str],
) -> dict[str, Any]:
    """The ``summary.json`` document of one fuzz campaign leg."""
    summary = summarize_sweep(
        run, sweep_result, completed_before=completed_before
    )
    summary["fuzz"] = {
        "budget": fuzz_report.budget,
        "seed": fuzz_report.seed,
        "engines": list(fuzz_report.engines),
        "twins": fuzz_report.twins,
        "parity_cells": fuzz_report.parity_cells,
        "parity_problems": list(fuzz_report.parity_problems),
        "counterexamples": [
            ce.original.name for ce in fuzz_report.counterexamples
        ],
    }
    # The differential oracles are the fuzz campaign's "trace oracle":
    # fold their verdict into the oracle section the SLOs judge.
    failed = len(fuzz_report.counterexamples) + len(fuzz_report.parity_problems)
    summary["oracle"] = {
        "checked": fuzz_report.budget,
        "failed": failed,
        "failed_cells": [ce.original.name for ce in fuzz_report.counterexamples],
    }
    summary["slo_verdicts"] = evaluate_slos(run.slo, summary)
    return summary


# ---------------------------------------------------------------------------
# Schema validation (check_trace.py-style: a list of problem strings)
# ---------------------------------------------------------------------------


def summary_problems(summary: Any) -> list[str]:
    """Schema assertions over a ``summary.json`` document.

    Mirrors :func:`repro.obs.schema.validate_jsonl_lines`: returns one
    human-readable problem per violated invariant, empty when the
    document is well-formed.  Used by ``scripts/check_summary.py`` and
    the CI ``report-smoke`` job.
    """
    problems: list[str] = []
    if not isinstance(summary, Mapping):
        return [f"summary is not an object (got {type(summary).__name__})"]

    def require(key: str, types: Any, where: Mapping[str, Any], path: str = "") -> Any:
        label = f"{path}{key}"
        if key not in where:
            problems.append(f"missing required key {label!r}")
            return None
        value = where[key]
        if not isinstance(value, types):
            problems.append(
                f"{label!r} has type {type(value).__name__}, expected "
                f"{types if isinstance(types, type) else '/'.join(t.__name__ for t in types)}"
            )
            return None
        return value

    schema = require("schema", int, summary)
    if schema is not None and schema != RUN_SCHEMA:
        problems.append(f"schema is {schema}, expected {RUN_SCHEMA}")
    require("run_id", str, summary)
    kind = require("kind", str, summary)
    if kind is not None and kind not in RUN_KINDS:
        problems.append(f"kind {kind!r} not in {RUN_KINDS}")

    coverage = require("coverage", Mapping, summary)
    if coverage is not None:
        planned = require("planned", int, coverage, "coverage.")
        completed = require("completed", int, coverage, "coverage.")
        fraction = require("fraction", (int, float), coverage, "coverage.")
        if (
            planned is not None
            and completed is not None
            and completed > planned
        ):
            problems.append(
                f"coverage.completed ({completed}) exceeds planned ({planned})"
            )
        if fraction is not None and not (0.0 <= float(fraction) <= 1.0):
            problems.append(f"coverage.fraction {fraction} outside [0, 1]")
        distinct = coverage.get("distinct")
        if distinct is not None and not (
            isinstance(distinct, int)
            and planned is not None
            and 0 <= distinct <= planned
        ):
            problems.append(
                f"coverage.distinct {distinct!r} is not a count within "
                f"planned ({planned})"
            )

    oracle = summary.get("oracle")
    if isinstance(oracle, Mapping) and "judged" in oracle:
        judged, checked = oracle["judged"], oracle.get("checked")
        if not (
            isinstance(judged, int)
            and isinstance(checked, int)
            and 0 <= judged <= checked
            and (judged > 0 or checked == 0)
        ):
            problems.append(
                f"oracle.judged {judged!r} is not a count within "
                f"checked ({checked!r}), nonzero when any cell was checked"
            )

    verdicts = require("slo_verdicts", list, summary)
    if verdicts is not None:
        for index, verdict in enumerate(verdicts):
            if not isinstance(verdict, Mapping):
                problems.append(f"slo_verdicts[{index}] is not an object")
                continue
            for field, types in (("slo", str), ("ok", bool)):
                if not isinstance(verdict.get(field), types):
                    problems.append(
                        f"slo_verdicts[{index}].{field} missing or mistyped"
                    )

    if kind in ("sweep", "fuzz") and isinstance(summary.get("resume"), Mapping):
        resume = summary["resume"]
        for field in ("completed_before", "executed", "cached", "re_executed"):
            if not isinstance(resume.get(field), int):
                problems.append(f"resume.{field} missing or mistyped")
    elif kind in ("sweep", "fuzz"):
        problems.append("missing required key 'resume'")

    spans = summary.get("spans")
    if spans is not None:
        if not isinstance(spans, Mapping):
            problems.append("'spans' is not an object")
        else:
            for name, stats in spans.items():
                if not isinstance(stats, Mapping) or not all(
                    isinstance(stats.get(field), (int, float))
                    for field in _FOLDABLE
                ):
                    problems.append(f"spans[{name!r}] missing count/total_s/max_s")

    if kind == "fuzz" and not isinstance(summary.get("fuzz"), Mapping):
        problems.append("missing required key 'fuzz'")

    return problems


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _span_tree_lines(spans: Mapping[str, Mapping[str, Any]]) -> list[str]:
    """Flamegraph-style indented tree of dotted span names."""
    root: dict[str, Any] = {"agg": None, "children": {}}
    for name in sorted(spans):
        node = root
        for segment in name.split("."):
            node = node["children"].setdefault(
                segment, {"agg": None, "children": {}}
            )
        node["agg"] = spans[name]

    def total_of(node: dict[str, Any]) -> float:
        if node["agg"] is not None:
            return float(node["agg"]["total_s"])
        return sum(total_of(child) for child in node["children"].values())

    grand_total = max(
        sum(total_of(child) for child in root["children"].values()), 1e-12
    )
    lines: list[str] = []

    def walk(node: dict[str, Any], label: str, depth: int) -> None:
        total = total_of(node)
        share = total / grand_total
        bar = "█" * max(1, round(share * 24)) if total > 0 else ""
        agg = node["agg"]
        count = f" ×{agg['count']}" if agg else ""
        lines.append(
            f"  {'  ' * depth}{label:<{max(34 - 2 * depth, 8)}} "
            f"{total * 1000:10.2f} ms {share * 100:5.1f}% {bar}{count}"
        )
        children = sorted(
            node["children"].items(),
            key=lambda item: total_of(item[1]),
            reverse=True,
        )
        for child_label, child in children:
            walk(child, child_label, depth + 1)

    for label, child in sorted(
        root["children"].items(),
        key=lambda item: total_of(item[1]),
        reverse=True,
    ):
        walk(child, label, 0)
    return lines


def _verdict_lines(verdicts: Sequence[Mapping[str, Any]]) -> list[str]:
    lines = []
    for verdict in verdicts:
        mark = "PASS" if verdict.get("ok") else "FAIL"
        lines.append(
            f"  {mark}  {verdict.get('slo')}: actual "
            f"{verdict.get('actual')!r} vs threshold "
            f"{verdict.get('threshold')!r}"
        )
    return lines


def render_report(
    run: RunDir,
    *,
    top: int = 5,
) -> str:
    """The ``repro report RUNDIR`` terminal dashboard, as one string.

    A run whose manifest status is not ``complete`` gets its
    :func:`run_progress` line in place of the dashboard; a complete run
    whose ``summary.json`` cannot be read raises :class:`ValueError`.
    """
    manifest = run.manifest
    lines = [
        f"run {run.run_id} ({manifest.get('kind')}, "
        f"status {manifest.get('status')}, leg {manifest.get('legs', 1)})"
    ]
    git = manifest.get("git") or {}
    if git.get("commit"):
        dirty = " (dirty)" if git.get("dirty") else ""
        lines.append(f"  commit {git['commit'][:12]}{dirty}")
    if manifest.get("injection"):
        lines.append(f"  INJECTED BUG: {manifest['injection']}")
    if manifest.get("name"):
        lines.append(f"  campaign: {manifest['name']}")

    if manifest.get("status") != "complete":
        progress = run_progress(run)
        lines.append(
            f"progress: {progress['done']}/{progress['planned']} "
            "planned cells done"
        )
        return "\n".join(lines)
    summary = run.read_summary()

    coverage = summary.get("coverage", {})
    distinct = coverage.get("distinct")
    lines.append(
        f"coverage: {coverage.get('completed')}/{coverage.get('planned')} "
        f"cells ({100 * float(coverage.get('fraction', 0)):.1f}%)"
        + (
            f", {distinct} distinct runs"
            if distinct is not None and distinct != coverage.get("planned")
            else ""
        )
    )
    by_engine = coverage.get("by_engine") or {}
    if by_engine:
        lines.append("  engine          planned  completed")
        for engine, slot in sorted(by_engine.items()):
            lines.append(
                f"  {engine:<15} {slot['planned']:>7}  {slot['completed']:>9}"
            )

    resume = summary.get("resume")
    if resume is not None:
        lines.append(
            f"resume: {resume['completed_before']} completed before this leg, "
            f"{resume['executed']} executed, {resume['cached']} cached, "
            f"{resume['re_executed']} re-executed"
        )

    cache = summary.get("cache")
    if cache is not None:
        lines.append(
            f"cache: {cache.get('hits', 0)} hits, {cache.get('misses', 0)} "
            f"misses, {cache.get('stores', 0)} stores, "
            f"{cache.get('corrupt_evictions', 0)} corrupt evictions"
        )

    oracle = summary.get("oracle")
    if oracle is not None:
        failed = oracle.get("failed", 0)
        verdict = "clean" if not failed else f"{failed} FAILED"
        judged = (
            f" ({oracle['judged']} judgements)" if "judged" in oracle else ""
        )
        lines.append(
            f"oracle: {oracle.get('checked')} cells checked{judged}, {verdict}"
        )
        for name in (oracle.get("failed_cells") or [])[:top]:
            lines.append(f"  FAIL {name}")

    fuzz = summary.get("fuzz")
    if fuzz is not None:
        lines.append(
            f"fuzz: budget {fuzz.get('budget')} over "
            f"{', '.join(fuzz.get('engines', []))}; "
            f"{fuzz.get('twins')} twins, "
            f"{len(fuzz.get('counterexamples', []))} counterexample(s), "
            f"{len(fuzz.get('parity_problems', []))} parity problem(s)"
        )

    causal = summary.get("causal")
    if causal:
        max_hops = max(
            (cell["max_path_length"] for cell in causal["cells"]), default=0
        )
        lines.append(
            f"causal: {len(causal['cells'])} cells analyzed, "
            f"max path {max_hops} hops, "
            f"{len(causal['anomaly_cells'])} anomalous"
        )
        for name in causal["anomaly_cells"][:top]:
            lines.append(f"  ANOMALY {name}")

    spans = summary.get("spans")
    if spans:
        lines.append("spans:")
        lines.extend(_span_tree_lines(spans))

    slowest = summary.get("slowest_cells") or []
    if slowest:
        lines.append(f"slowest cells (top {min(top, len(slowest))}):")
        for entry in slowest[:top]:
            lines.append(
                f"  {entry['cell']:<40} {entry['duration_s'] * 1000:9.2f} ms"
            )

    verdicts = summary.get("slo_verdicts") or []
    if verdicts:
        overall = all(v.get("ok") for v in verdicts)
        lines.append(f"SLO: {'PASS' if overall else 'FAIL'}")
        lines.extend(_verdict_lines(verdicts))

    return "\n".join(lines)


def run_progress(run: RunDir) -> dict[str, Any]:
    """How far a run has got: ``{"done": N, "planned": M}``, where N
    counts the manifest's planned cells with a line in ``metrics.jsonl``
    and M is the manifest's ``planned``."""
    seen = {record.get("key") for record in run.metrics_records()}
    cells = run.manifest.get("cells") or []
    return {
        "done": sum(cell.get("key") in seen for cell in cells),
        "planned": run.manifest.get("planned"),
    }


def report_json(run: RunDir) -> dict[str, Any]:
    """The machine form of the dashboard: manifest + summary + progress.

    A run whose manifest status is not ``complete`` is reported as a
    *partial* document — ``in_progress: true``, ``summary: null`` and
    its :func:`run_progress` — the consumer decides whether partial is
    acceptable, instead of the report crashing on a perfectly healthy
    mid-campaign run.  A complete run carries its summary and
    ``progress: null``; one whose ``summary.json`` cannot be read
    raises :class:`ValueError`.
    """
    finished = run.manifest.get("status") == "complete"
    return {
        "manifest": run.manifest,
        "summary": run.read_summary() if finished else None,
        "progress": None if finished else run_progress(run),
        "in_progress": not finished,
    }


def find_run_dir(path: str | Path) -> Path:
    """Resolve ``path`` to a run directory.

    Accepts the run directory itself or a runs root containing exactly
    one run; a root with several runs raises with the candidate list
    (newest first) so the caller can pick.
    """
    path = Path(path)
    if (path / "manifest.json").exists():
        return path
    candidates = sorted(
        (entry for entry in path.glob("*/manifest.json")),
        key=lambda entry: entry.stat().st_mtime,
        reverse=True,
    )
    if len(candidates) == 1:
        return candidates[0].parent
    if not candidates:
        raise FileNotFoundError(f"{path}: no run directory (manifest.json) found")
    names = ", ".join(entry.parent.name for entry in candidates)
    raise FileNotFoundError(
        f"{path} holds {len(candidates)} runs ({names}); pass one explicitly"
    )
