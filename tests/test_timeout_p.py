"""Tests for the timeout-based perfect failure detector on SS."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.failures import (
    FailurePattern,
    TimeoutPerfectDetector,
    classify_history,
    detection_delays,
    detection_threshold,
    history_from_run,
)
from repro.models import SynchronousModel


def run_detector(n, phi, delta, crashes, seed, steps=400):
    model = SynchronousModel(phi=phi, delta=delta)
    pattern = FailurePattern.with_crashes(n, crashes)
    executor = model.executor(
        TimeoutPerfectDetector(n, phi, delta),
        n,
        pattern,
        rng=random.Random(seed),
        record_states=True,
    )
    return executor.execute(steps), pattern


class TestThreshold:
    def test_formula(self):
        assert detection_threshold(3, 2, 2) == 2 * 3 + 2

    def test_n2_matches_paper_bound(self):
        # For two processes the threshold is Φ+1+Δ — the paper's SDD bound.
        assert detection_threshold(2, 1, 1) == 1 + 1 + 1
        assert detection_threshold(2, 3, 2) == 3 + 1 + 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            detection_threshold(1, 1, 1)
        with pytest.raises(ConfigurationError):
            detection_threshold(3, 0, 1)


class TestAccuracy:
    @pytest.mark.parametrize("seed", range(4))
    def test_no_suspicion_in_crash_free_runs(self, seed):
        run, _ = run_detector(3, 1, 1, {}, seed, steps=300)
        for state in run.final_states.values():
            assert state.suspected == frozenset()

    @pytest.mark.parametrize("phi,delta", [(1, 1), (2, 2)])
    def test_only_crashed_processes_suspected(self, phi, delta):
        run, pattern = run_detector(3, phi, delta, {1: 25}, seed=3)
        for pid in (0, 2):
            assert run.final_states[pid].suspected <= {1}


class TestCompletenessAndClass:
    @pytest.mark.parametrize("seed", range(4))
    def test_crash_eventually_suspected_by_all_survivors(self, seed):
        run, pattern = run_detector(3, 1, 2, {1: 20}, seed)
        for pid in (0, 2):
            assert 1 in run.final_states[pid].suspected

    @pytest.mark.parametrize("seed", range(3))
    def test_lifted_history_satisfies_p(self, seed):
        run, pattern = run_detector(3, 2, 2, {1: 30}, seed, steps=450)
        history = history_from_run(run)
        report = classify_history(history, pattern, len(run.schedule) - 1)
        assert not report.violations

    def test_detection_delay_within_bound(self):
        n, phi, delta = 3, 2, 2
        bound = detection_threshold(n, phi, delta) + delta + 1
        for seed in range(6):
            run, _ = run_detector(n, phi, delta, {1: 15 + seed}, seed)
            for delay in detection_delays(run).values():
                if delay is not None:
                    assert delay <= bound

    def test_history_from_run_requires_snapshots(self):
        model = SynchronousModel()
        pattern = FailurePattern.crash_free(2)
        run = model.executor(
            TimeoutPerfectDetector(2, 1, 1), 2, pattern
        ).execute(10)
        with pytest.raises(ConfigurationError):
            history_from_run(run)


class TestTwoProcessCase:
    """The SDD setting: n = 2, detection within Φ+1+Δ (+Δ in flight)."""

    def test_survivor_detects_peer(self):
        run, _ = run_detector(2, 1, 1, {0: 6}, seed=2, steps=100)
        assert 0 in run.final_states[1].suspected

    def test_initially_dead_detected_from_silence(self):
        run, _ = run_detector(2, 1, 1, {0: 0}, seed=2, steps=60)
        assert 0 in run.final_states[1].suspected
