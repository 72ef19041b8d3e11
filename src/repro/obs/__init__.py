"""Observability: structured event tracing, metrics, and profiling.

The paper's headline result is quantitative (Λ = 1 in RS vs Λ ≥ 2 in
RWS), but a latency number alone does not explain *why* a run took the
rounds it did — which messages were withheld, when detectors suspected,
where wall-clock time went.  This package is the instrumentation
substrate that answers those questions without perturbing the engines:

* :class:`EventLog` — the one recorder every engine writes into: typed
  hooks that append timestamped events (``round_start``, ``msg_sent``,
  ``msg_withheld``, ``msg_delivered``, ``crash``, ``suspect``,
  ``decide``, ``halt``), exportable as JSONL.  Every engine call site
  is guarded by ``observer is not None``, so an unrecorded run stays
  zero-cost.
* :class:`MetricsRegistry` / :func:`metrics_of` — counters, gauges
  and histograms folded from a recorded trace (messages per round,
  decision-round distribution, suspicion latency).
* :class:`Profiler` and :func:`profiled` — ``perf_counter`` span
  timers wrapping the engines' hot paths; inert until a profiler is
  installed with :func:`set_profiler`.

On top of the stream sits the *trace oracle* trio:

* :mod:`repro.obs.check` — streaming invariant monitors: P strong
  completeness/accuracy, RS/RWS (weak) round synchrony, consensus
  agreement/uniformity/validity/termination, and trace well-formedness, each
  returning typed :class:`Violation` reports with event indices.
* :mod:`repro.obs.replay` — reconstruct the
  :class:`~repro.rounds.scenario.FailureScenario` behind a trace and
  deterministically re-execute it, asserting event-for-event equality.
* :mod:`repro.obs.diff` — per-process divergence diffing and
  :func:`local_view`, the one executable form of the paper's
  indistinguishability relation (a process's causal past plus the
  inputs it rests on).

And the causal layer: :mod:`repro.obs.causal` reconstructs the
happens-before DAG (structural send→delivery matching, causal pasts)
from any trace, and :mod:`repro.obs.critical` extracts per-decision
critical paths and audits suspicions against the trace's crashes.

See ``docs/observability.md`` for the event taxonomy, the checker
catalogue, and a worked example mapping a trace back to the paper's
run notation.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "artifacts": (
            "RUN_SCHEMA",
            "RunDir",
            "SLOConfig",
            "compute_run_id",
            "evaluate_slos",
            "git_provenance",
            "identity_for_requests",
        ),
        "causal": (
            "CausalEdge",
            "CausalGraph",
            "annotate",
            "round_msg_id",
        ),
        "critical": (
            "DecisionPath",
            "SuspicionReport",
            "causal_summary",
            "critical_paths",
            "is_round_trace",
            "suspicion_forensics",
            "verify_round_paths",
        ),
        "events": (
            "EVENT_KINDS",
            "Event",
            "EventLog",
            "clock_kind",
            "events_from_jsonl_lines",
            "logical_clock",
        ),
        "check": (
            "CheckReport",
            "ConsensusChecker",
            "DetectorAccuracyChecker",
            "DetectorCompletenessChecker",
            "OrderingChecker",
            "RoundSynchronyChecker",
            "TraceChecker",
            "Violation",
            "WeakRoundSynchronyChecker",
            "check_events",
            "default_checkers",
            "ordering_problems",
            "run_checkers",
        ),
        "diff": (
            "Divergence",
            "TraceDiff",
            "diff_traces",
            "first_divergence",
            "local_view",
            "view_divergence",
        ),
        "metrics": (
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "metrics_of",
        ),
        "profile": ("Profiler", "get_profiler", "profiled", "set_profiler"),
        "progress": ("ProgressReporter", "latest_progress"),
        "report": (
            "causal_cells",
            "find_run_dir",
            "merge_span_snapshots",
            "render_report",
            "render_top",
            "report_json",
            "summarize_fuzz",
            "summarize_sweep",
            "summary_problems",
        ),
        "replay": (
            "ReplayReport",
            "infer_model",
            "reconstruct_scenario",
            "replay_events",
        ),
        "schema": ("validate_event_dict", "validate_jsonl_lines"),
    },
)

__all__ = [
    "RUN_SCHEMA",
    "RunDir",
    "SLOConfig",
    "compute_run_id",
    "evaluate_slos",
    "git_provenance",
    "identity_for_requests",
    "ProgressReporter",
    "latest_progress",
    "causal_cells",
    "find_run_dir",
    "merge_span_snapshots",
    "render_report",
    "render_top",
    "report_json",
    "summarize_fuzz",
    "summarize_sweep",
    "summary_problems",
    "EVENT_KINDS",
    "Event",
    "EventLog",
    "clock_kind",
    "events_from_jsonl_lines",
    "logical_clock",
    "CausalEdge",
    "CausalGraph",
    "annotate",
    "round_msg_id",
    "DecisionPath",
    "SuspicionReport",
    "causal_summary",
    "critical_paths",
    "is_round_trace",
    "suspicion_forensics",
    "verify_round_paths",
    "CheckReport",
    "ConsensusChecker",
    "DetectorAccuracyChecker",
    "DetectorCompletenessChecker",
    "OrderingChecker",
    "RoundSynchronyChecker",
    "TraceChecker",
    "Violation",
    "WeakRoundSynchronyChecker",
    "check_events",
    "default_checkers",
    "ordering_problems",
    "run_checkers",
    "Divergence",
    "TraceDiff",
    "diff_traces",
    "first_divergence",
    "local_view",
    "view_divergence",
    "ReplayReport",
    "infer_model",
    "reconstruct_scenario",
    "replay_events",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics_of",
    "Profiler",
    "profiled",
    "get_profiler",
    "set_profiler",
    "validate_event_dict",
    "validate_jsonl_lines",
]
