"""Tests for failure patterns (paper Section 2.1)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.failures import FailurePattern, random_pattern


class TestFailurePatternBasics:
    def test_crash_free_has_no_faulty(self):
        pattern = FailurePattern.crash_free(4)
        assert pattern.faulty == frozenset()
        assert pattern.correct == frozenset(range(4))

    def test_crashed_by_respects_crash_time(self):
        pattern = FailurePattern.with_crashes(3, {1: 5})
        assert pattern.crashed_by(4) == frozenset()
        assert pattern.crashed_by(5) == frozenset({1})
        assert pattern.crashed_by(100) == frozenset({1})

    def test_is_alive_boundary(self):
        pattern = FailurePattern.with_crashes(2, {0: 3})
        assert pattern.is_alive(0, 2)
        assert not pattern.is_alive(0, 3)

    def test_initially_dead_only_at_time_zero(self):
        pattern = FailurePattern.with_crashes(3, {0: 0, 1: 1})
        assert pattern.initially_dead == frozenset({0})

    def test_correct_faulty_partition(self):
        pattern = FailurePattern.with_crashes(5, {0: 1, 3: 9})
        assert pattern.faulty | pattern.correct == frozenset(range(5))
        assert pattern.faulty & pattern.correct == frozenset()

    def test_crash_time_lookup(self):
        pattern = FailurePattern.with_crashes(2, {1: 7})
        assert pattern.crash_time(1) == 7
        assert pattern.crash_time(0) is None

    def test_num_failures(self):
        assert FailurePattern.with_crashes(4, {0: 1, 2: 2}).num_failures() == 2

    def test_describe_mentions_crashes(self):
        text = FailurePattern.with_crashes(3, {2: 4}).describe()
        assert "p2@4" in text

    def test_describe_crash_free(self):
        assert "crash-free" in FailurePattern.crash_free(3).describe()


class TestFailurePatternValidation:
    def test_rejects_nonpositive_n(self):
        with pytest.raises(ConfigurationError):
            FailurePattern(n=0)

    def test_rejects_unknown_process(self):
        with pytest.raises(ConfigurationError):
            FailurePattern.with_crashes(2, {5: 1})

    def test_rejects_negative_crash_time(self):
        with pytest.raises(ConfigurationError):
            FailurePattern.with_crashes(2, {0: -1})


class TestGenerators:
    def test_crash_free_generator(self):
        assert FailurePattern.crash_free(3).num_failures() == 0

    def test_initially_dead_generator(self):
        pattern = FailurePattern.with_crashes(4, {1: 0, 2: 0})
        assert pattern.initially_dead == frozenset({1, 2})

    def test_single_crash_generator(self):
        pattern = FailurePattern.with_crashes(3, {2: 10})
        assert pattern.crash_time(2) == 10
        assert pattern.num_failures() == 1

    def test_random_pattern_respects_bound(self):
        rng = random.Random(1)
        for _ in range(50):
            pattern = random_pattern(5, 2, 20, rng)
            assert pattern.num_failures() <= 2
            assert all(0 <= ct <= 20 for ct in pattern.crash_times.values())

    def test_random_pattern_rejects_max_failures_eq_n(self):
        with pytest.raises(ConfigurationError):
            random_pattern(3, 3, 10, random.Random(0))


@given(
    n=st.integers(min_value=1, max_value=6),
    crashes=st.dictionaries(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=30),
        max_size=3,
    ),
    t1=st.integers(min_value=0, max_value=40),
)
def test_monotonicity_property(n, crashes, t1):
    """F(t) ⊆ F(t+1): crashes are permanent (hypothesis)."""
    crashes = {pid: ct for pid, ct in crashes.items() if pid < n}
    pattern = FailurePattern.with_crashes(n, crashes)
    assert pattern.crashed_by(t1) <= pattern.crashed_by(t1 + 1)


@given(
    n=st.integers(min_value=1, max_value=6),
    crashes=st.dictionaries(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=30),
        max_size=3,
    ),
)
def test_faulty_equals_union_of_crashed(n, crashes):
    """Faulty(F) = ∪_t F(t) (hypothesis)."""
    crashes = {pid: ct for pid, ct in crashes.items() if pid < n}
    pattern = FailurePattern.with_crashes(n, crashes)
    assert pattern.faulty == pattern.crashed_by(1_000)
