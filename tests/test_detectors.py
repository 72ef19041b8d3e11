"""Tests for the failure-detector hierarchy and its axiom checkers."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.failures import (
    DETECTOR_CLASSES,
    ConstantHistory,
    FailurePattern,
    FunctionHistory,
    PerfectDetector,
    TableHistory,
    check_eventual_strong_accuracy,
    check_eventual_weak_accuracy,
    check_strong_accuracy,
    check_strong_completeness,
    check_weak_accuracy,
    check_weak_completeness,
    classify_history,
)

HORIZON = 120

PATTERNS = [
    FailurePattern.crash_free(4),
    FailurePattern.with_crashes(4, {1: 10}),
    FailurePattern.with_crashes(4, {0: 0, 2: 30}),
]


class TestHistories:
    def test_constant_history(self):
        history = ConstantHistory({1, 2})
        assert history.suspects(0, 0) == frozenset({1, 2})
        assert history.suspects(3, 99) == frozenset({1, 2})

    def test_function_history(self):
        history = FunctionHistory(lambda pid, t: {pid} if t > 5 else set())
        assert history.suspects(2, 3) == frozenset()
        assert history.suspects(2, 6) == frozenset({2})

    def test_table_history_persists_last_entry(self):
        history = TableHistory({(0, 3): {1}})
        assert history.suspects(0, 2) == frozenset()
        assert history.suspects(0, 3) == frozenset({1})
        assert history.suspects(0, 10) == frozenset({1})

    def test_table_history_backfills_between_entries(self):
        history = TableHistory({(0, 2): {1}, (0, 8): set()})
        assert history.suspects(0, 5) == frozenset({1})
        assert history.suspects(0, 9) == frozenset()


class TestHierarchyAxioms:
    """Every detector class satisfies exactly its advertised axioms."""

    @pytest.mark.parametrize("name", sorted(DETECTOR_CLASSES))
    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.describe())
    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_class_matches_own_axioms(self, name, pattern, seed):
        detector = DETECTOR_CLASSES[name]()
        rng = random.Random(seed) if seed is not None else None
        history = detector.history(pattern, horizon=HORIZON, rng=rng)
        report = classify_history(history, pattern, HORIZON)
        assert report.matches_class(name), (
            f"{name} produced a history violating its own axioms for "
            f"{pattern.describe()}: {report}"
        )

    def test_perfect_has_strong_accuracy_at_every_time(self):
        pattern = FailurePattern.with_crashes(3, {1: 20})
        history = PerfectDetector(max_delay=10).history(
            pattern, horizon=HORIZON, rng=random.Random(5)
        )
        assert check_strong_accuracy(history, pattern, HORIZON)

    def test_perfect_detection_delay_is_bounded(self):
        pattern = FailurePattern.with_crashes(3, {1: 20})
        detector = PerfectDetector(max_delay=7)
        history = detector.history(pattern, horizon=HORIZON, rng=random.Random(5))
        assert 1 in history.suspects(0, 20 + 7)

    def test_perfect_rejects_negative_delay(self):
        with pytest.raises(ConfigurationError):
            PerfectDetector(max_delay=-1)

    def test_strong_detector_requires_a_correct_process(self):
        everyone_dies = FailurePattern.with_crashes(2, {0: 0, 1: 0})
        with pytest.raises(ConfigurationError):
            DETECTOR_CLASSES["S"]().history(everyone_dies, horizon=10)


class TestAxiomCheckersCatchViolations:
    def test_empty_history_fails_completeness_when_crash_occurs(self):
        pattern = FailurePattern.with_crashes(3, {1: 5})
        history = ConstantHistory(set())
        assert not check_strong_completeness(history, pattern, HORIZON)
        assert not check_weak_completeness(history, pattern, HORIZON)

    def test_empty_history_is_trivially_complete_without_crashes(self):
        pattern = FailurePattern.crash_free(3)
        history = ConstantHistory(set())
        assert check_strong_completeness(history, pattern, HORIZON)

    def test_premature_suspicion_fails_strong_accuracy(self):
        pattern = FailurePattern.with_crashes(3, {1: 50})
        history = ConstantHistory({1})  # suspected from time 0 < 50
        assert not check_strong_accuracy(history, pattern, HORIZON)

    def test_suspecting_everyone_fails_weak_accuracy(self):
        pattern = FailurePattern.crash_free(3)
        history = ConstantHistory({0, 1, 2})
        assert not check_weak_accuracy(history, pattern, HORIZON)

    def test_weak_accuracy_needs_one_unsuspected_correct(self):
        pattern = FailurePattern.crash_free(3)
        history = ConstantHistory({0, 1})  # p2 never suspected
        assert check_weak_accuracy(history, pattern, HORIZON)

    def test_eventual_strong_accuracy_ignores_early_chaos(self):
        pattern = FailurePattern.crash_free(2)
        history = FunctionHistory(
            lambda pid, t: {1 - pid} if t < 10 else set()
        )
        assert check_eventual_strong_accuracy(history, pattern, HORIZON)
        assert not check_strong_accuracy(history, pattern, HORIZON)

    def test_eventual_weak_accuracy_at_horizon(self):
        pattern = FailurePattern.crash_free(2)
        history = ConstantHistory({0})
        assert check_eventual_weak_accuracy(history, pattern, HORIZON)

    def test_permanence_required_for_completeness(self):
        # Suspicion that is dropped before the horizon is not permanent.
        pattern = FailurePattern.with_crashes(2, {0: 5})
        history = FunctionHistory(
            lambda pid, t: {0} if 5 <= t < 50 else set()
        )
        assert not check_strong_completeness(history, pattern, HORIZON)

    def test_classify_reports_violation_text(self):
        pattern = FailurePattern.with_crashes(2, {0: 5})
        report = classify_history(ConstantHistory(set()), pattern, HORIZON)
        assert report.violations

    def test_matches_class_unknown_name_raises(self):
        pattern = FailurePattern.crash_free(2)
        report = classify_history(ConstantHistory(set()), pattern, 10)
        with pytest.raises(KeyError):
            report.matches_class("X")


class TestHierarchyOrdering:
    """P's histories satisfy every weaker class (the hierarchy order)."""

    @pytest.mark.parametrize("weaker", ["<>P", "S", "<>S", "Q", "<>Q"])
    def test_perfect_history_satisfies_weaker_classes(self, weaker):
        pattern = FailurePattern.with_crashes(4, {2: 15})
        history = PerfectDetector(max_delay=5).history(
            pattern, horizon=HORIZON, rng=random.Random(3)
        )
        report = classify_history(history, pattern, HORIZON)
        assert report.matches_class("P")
        assert report.matches_class(weaker)
