"""Tests for the observability layer: events, metrics, profiling."""

from __future__ import annotations

import json
import random

import pytest

from repro.consensus import FloodSet
from repro.failures import FailurePattern
from repro.obs import (
    EventLog,
    MetricsRegistry,
    Profiler,
    get_profiler,
    metrics_of,
    profiled,
    set_profiler,
    validate_event_dict,
    validate_jsonl_lines,
)
from repro.rounds import FailureScenario, run_rs, run_rws
from repro.simulation import RoundRobinScheduler, StepExecutor
from repro.simulation.automaton import IdleAutomaton
from repro.stats import percentile
from repro.workloads import adversarial_split, floodset_rws_violation


class TestEventSequence:
    """The recording-observer contract: exact events, exact order."""

    def run_violation(self):
        log = EventLog()
        run = run_rws(
            FloodSet(),
            adversarial_split(3),
            floodset_rws_violation(3),
            t=1,
            max_rounds=4,
            observer=log,
        )
        return run, log

    def test_exact_event_sequence(self):
        """3-process FloodSet, one crash, two withheld round-1 copies:
        the full event list, in order."""
        _, log = self.run_violation()
        # (kind, round, pid, peer) for every event; value checked apart.
        shape = [(e.kind, e.round, e.pid, e.peer) for e in log]
        assert shape == [
            ("round_start", 1, None, None),
            # send phase: p0, p1, p2 each broadcast to 0, 1, 2
            ("msg_sent", 1, 0, 0),
            ("msg_sent", 1, 1, 0),
            ("msg_sent", 1, 2, 0),
            ("msg_sent", 1, 0, 1),
            ("msg_sent", 1, 1, 1),
            ("msg_sent", 1, 2, 1),
            ("msg_sent", 1, 0, 2),
            ("msg_sent", 1, 1, 2),
            ("msg_sent", 1, 2, 2),
            # delivery phase: p0's copies to p1 and p2 are withheld
            ("msg_delivered", 1, 0, 0),
            ("msg_withheld", 1, 1, 0),
            ("msg_withheld", 1, 2, 0),
            ("msg_delivered", 1, 0, 1),
            ("msg_delivered", 1, 1, 1),
            ("msg_delivered", 1, 2, 1),
            ("msg_delivered", 1, 0, 2),
            ("msg_delivered", 1, 1, 2),
            ("msg_delivered", 1, 2, 2),
            ("round_start", 2, None, None),
            # round 2: p0 crashes mid-broadcast reaching only p1
            ("msg_sent", 2, 1, 0),
            ("msg_sent", 2, 0, 1),
            ("msg_sent", 2, 1, 1),
            ("msg_sent", 2, 2, 1),
            ("msg_sent", 2, 0, 2),
            ("msg_sent", 2, 1, 2),
            ("msg_sent", 2, 2, 2),
            ("msg_delivered", 2, 1, 0),
            ("msg_delivered", 2, 0, 1),
            ("msg_delivered", 2, 1, 1),
            ("msg_delivered", 2, 2, 1),
            ("msg_delivered", 2, 0, 2),
            ("msg_delivered", 2, 1, 2),
            ("msg_delivered", 2, 2, 2),
            ("crash", 2, 0, None),
            ("decide", 2, 1, None),
            ("decide", 2, 2, None),
            ("halt", 2, 1, None),
            ("halt", 2, 2, None),
        ]

    def test_withheld_events_match_declared_pending(self):
        """Every declared pending message appears as exactly one
        msg_withheld event, and nothing else does."""
        scenario = floodset_rws_violation(3)
        _, log = self.run_violation()
        emitted = {
            (e.peer, e.pid, e.round) for e in log.of_kind("msg_withheld")
        }
        declared = {
            (p.sender, p.recipient, p.round) for p in scenario.pending
        }
        assert emitted == declared
        assert len(log.of_kind("msg_withheld")) == len(scenario.pending)

    def test_disagreement_visible_in_decide_events(self):
        """The trace exposes the paper's violation: two different
        decision values among correct processes."""
        _, log = self.run_violation()
        values = {e.value for e in log.of_kind("decide")}
        assert len(values) == 2

    def test_timestamps_monotonic(self):
        """Every log stamps its own logical counter: 1.0, 2.0, ..."""
        _, log = self.run_violation()
        stamps = [e.ts for e in log]
        assert stamps == [float(i) for i in range(1, len(stamps) + 1)]


class TestNoOpEquivalence:
    """Instrumentation must not perturb execution."""

    def test_results_identical_with_and_without_observer(self):
        kwargs = dict(t=1, max_rounds=4)
        bare = run_rws(
            FloodSet(),
            adversarial_split(3),
            floodset_rws_violation(3),
            **kwargs,
        )
        observed = run_rws(
            FloodSet(),
            adversarial_split(3),
            floodset_rws_violation(3),
            observer=EventLog(),
            **kwargs,
        )
        assert bare.rounds == observed.rounds
        assert bare.decisions == observed.decisions
        assert bare.final_states == observed.final_states
        assert bare.num_rounds == observed.num_rounds
        assert bare.latency() == observed.latency()

    def test_step_kernel_identical_with_and_without_observer(self):
        pattern = FailurePattern.crash_free(3)

        def run(observer):
            executor = StepExecutor(
                IdleAutomaton(),
                3,
                pattern,
                RoundRobinScheduler(),
                observer=observer,
            )
            return executor.execute(50)

        bare, observed = run(None), run(EventLog())
        assert len(bare.schedule) == len(observed.schedule)
        assert bare.final_states == observed.final_states


class TestRoundRecordImmutability:
    """The lazily-wrapped delivery maps are genuinely read-only."""

    def test_delivered_views_reject_mutation(self):
        run = run_rs(
            FloodSet(),
            [0, 1, 1],
            FailureScenario.failure_free(3),
            t=1,
        )
        record = run.rounds[0]
        with pytest.raises(TypeError):
            record.delivered[0] = {}
        with pytest.raises(TypeError):
            record.delivered[0][99] = "x"
        with pytest.raises(TypeError):
            record.sent[(0, 0)] = "x"

    def test_delivered_still_reads_like_a_mapping(self):
        run = run_rs(
            FloodSet(),
            [0, 1, 1],
            FailureScenario.failure_free(3),
            t=1,
        )
        record = run.rounds[0]
        assert set(record.delivered) == {0, 1, 2}
        assert record.delivered[1][0] is not None
        assert dict(record.delivered[0]) == dict(record.delivered[0])


def _snapshot(log: EventLog) -> dict:
    """A recorded run's folded metrics."""
    return metrics_of(log.events)


class TestMetrics:
    def test_per_round_message_counters(self):
        log = EventLog()
        run_rws(
            FloodSet(),
            adversarial_split(3),
            floodset_rws_violation(3),
            t=1,
            max_rounds=4,
            observer=log,
        )
        snap = _snapshot(log)
        counters = snap["counters"]
        assert counters["messages.withheld"] == 2
        assert counters["messages.withheld.round.1"] == 2
        assert counters["messages.sent.round.1"] == 9
        assert counters["messages.sent.round.2"] == 7
        assert (
            counters["messages.sent"]
            == counters["messages.delivered"] + counters["messages.withheld"]
        )
        assert counters["decisions.round.2"] == 2
        assert counters["crashes"] == 1
        assert snap["histograms"]["decision.round"] == [2, 2]

    def test_suspicion_latency_histogram(self):
        from repro.emulation import emulate_rws_on_sp
        import random

        log = EventLog()
        emulate_rws_on_sp(
            FloodSet(),
            adversarial_split(3),
            FailurePattern.with_crashes(3, {0: 5}),
            t=1,
            num_rounds=2,
            rng=random.Random(11),
            max_detection_delay=2,
            delivery_prob=0.15,
            max_age=80,
            observer=log,
        )
        snap = _snapshot(log)
        delays = snap["histograms"]["detector.suspicion_delay.steps"]
        assert len(delays) >= 1
        assert min(delays) >= 0  # strong accuracy: never before the crash
        assert snap["counters"]["suspicions"] >= 1

    def test_registry_get_or_create(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.counter("x").inc(2)
        assert registry.counter("x").value == 3
        registry.gauge("g").set(1.5)
        assert registry.gauge("g").value == 1.5
        registry.histogram("h").values.append(1.0)
        assert registry.histogram("h").values == [1.0]
        assert registry.histogram("empty").values == []


class TestProfiler:
    def test_spans_inert_without_profiler(self):
        set_profiler(None)
        with profiled("nothing"):
            pass
        assert get_profiler() is None

    def test_spans_recorded_when_installed(self):
        profiler = Profiler()
        set_profiler(profiler)
        try:
            run_rs(
                FloodSet(),
                [0, 1, 1],
                FailureScenario.failure_free(3),
                t=1,
            )
        finally:
            set_profiler(None)
        snap = profiler.snapshot()
        assert "rounds.execute" in snap
        assert snap["rounds.execute"]["count"] == 1
        assert snap["rounds.execute"]["total_s"] > 0


class TestSchema:
    def test_valid_trace_passes(self):
        log = EventLog()
        run_rws(
            FloodSet(),
            adversarial_split(3),
            floodset_rws_violation(3),
            t=1,
            max_rounds=4,
            observer=log,
        )
        assert validate_jsonl_lines(log.jsonl_lines()) == []

    def test_unknown_kind_rejected(self):
        problems = validate_event_dict({"kind": "teleport", "ts": 1.0})
        assert problems and "unknown event kind" in problems[0]

    def test_missing_fields_rejected(self):
        problems = validate_event_dict({"kind": "msg_withheld", "ts": 1.0})
        assert any("missing field" in p for p in problems)

    def test_extra_fields_rejected(self):
        problems = validate_event_dict(
            {"kind": "crash", "ts": 1.0, "pid": 0, "color": "red"}
        )
        assert any("unknown fields" in p for p in problems)

    def test_bad_json_and_empty_trace(self):
        assert any(
            "not valid JSON" in p for p in validate_jsonl_lines(["{nope"])
        )
        assert validate_jsonl_lines([]) == ["trace contains no events"]

    def test_jsonl_round_trip(self):
        log = EventLog()
        run_rs(
            FloodSet(), [0, 1, 1], FailureScenario.failure_free(3), t=1,
            observer=log,
        )
        lines = list(log.jsonl_lines())
        decoded = [json.loads(line) for line in lines]
        assert [d["kind"] for d in decoded] == log.kinds()


class TestStatsHelpers:
    def test_percentile_interpolates(self):
        data = [1, 2, 3, 4]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 4
        assert percentile(data, 50) == 2.5
        assert percentile([7], 90) == 7.0

    def test_percentile_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_percentile_matches_numpy_bit_for_bit(self):
        """The linear interpolation is numpy.percentile's, exactly.

        The two-branch lerp in :func:`repro.stats.percentile` exists so
        summary statistics agree to the last bit with numpy-based
        tooling; this pins the equality over random sizes, spreads and
        ranks (skipped without the ``fast`` extra installed).
        """
        np = pytest.importorskip("numpy")
        rng = random.Random(20260808)
        for _ in range(500):
            data = [
                rng.uniform(-1e6, 1e6)
                for _ in range(rng.randint(1, 40))
            ]
            p = rng.choice([0.0, 50.0, 100.0, rng.uniform(0.0, 100.0)])
            ours = percentile(data, p)
            theirs = float(np.percentile(data, p))
            assert ours == theirs, (data, p, ours, theirs)


class TestProfilerFailurePaths:
    def test_span_closed_when_wrapped_engine_raises(self):
        """An engine that raises mid-execution still records its span —
        the profiler never leaks an open timer."""

        class ExplodingFloodSet(FloodSet):
            def transition(self, pid, state, received):
                raise RuntimeError("engine exploded mid-round")

        profiler = Profiler()
        set_profiler(profiler)
        try:
            with pytest.raises(RuntimeError, match="mid-round"):
                run_rs(
                    ExplodingFloodSet(),
                    [0, 1, 1],
                    FailureScenario.failure_free(3),
                    t=1,
                )
        finally:
            set_profiler(None)
        snap = profiler.snapshot()
        assert snap["rounds.execute"]["count"] == 1

    def test_span_context_reraises(self):
        profiler = Profiler()
        set_profiler(profiler)
        try:
            with pytest.raises(ValueError, match="inner"):
                with profiled("failing.phase"):
                    raise ValueError("inner")
        finally:
            set_profiler(None)
        assert profiler.snapshot()["failing.phase"]["count"] == 1

    def test_snapshot_includes_p50(self):
        profiler = Profiler()
        for sample in (0.1, 0.2, 0.3):
            profiler.record("x", sample)
        snap = profiler.snapshot()["x"]
        assert snap["p50_s"] == pytest.approx(0.2)
        assert snap["p95_s"] >= snap["p50_s"]


class TestEmulationObservers:
    def test_rs_on_ss_emits_kernel_events_and_decides(self):
        import random
        from repro.emulation import emulate_rs_on_ss

        log = EventLog()
        trace = emulate_rs_on_ss(
            FloodSet(),
            adversarial_split(3),
            FailurePattern.crash_free(3),
            t=1,
            rng=random.Random(5),
            observer=log,
        )
        assert log.of_kind("msg_sent")
        assert log.of_kind("msg_delivered")
        decided = {e.pid for e in log.of_kind("decide")}
        assert decided == {
            pid for pid, entry in trace.decisions.items() if entry
        }
