"""Tests for the RWS round-1 lower-bound machinery (experiment E10)."""

from __future__ import annotations

import pytest

from repro.analysis import refute_round_one_decision
from repro.analysis.lowerbound import _has_round_one_property
from repro.consensus import A1, FloodSetWS
from repro.consensus.candidates import (
    ROUND_ONE_CANDIDATES,
    A1Halt,
    LeaderOrOwn,
    MinRoundOne,
)


class TestRoundOneProperty:
    def test_a1_has_it(self):
        assert _has_round_one_property(A1(), 3, 1, (0, 1))

    def test_floodsetws_does_not(self):
        assert not _has_round_one_property(FloodSetWS(), 3, 1, (0, 1))

    @pytest.mark.parametrize(
        "candidate", ROUND_ONE_CANDIDATES, ids=lambda c: c.name
    )
    def test_all_candidates_have_it(self, candidate):
        assert _has_round_one_property(candidate, 3, 1, (0, 1))


class TestRefutation:
    @pytest.mark.parametrize(
        "candidate", ROUND_ONE_CANDIDATES, ids=lambda c: c.name
    )
    def test_every_candidate_is_refuted(self, candidate):
        """The executable shape of the companion paper's lower bound."""
        verdict = refute_round_one_decision(candidate, 3, 1)
        assert verdict.has_round_one_property
        assert verdict.refuted, verdict.describe()

    def test_refutation_names_a_scenario(self):
        verdict = refute_round_one_decision(A1(), 3, 1)
        assert verdict.violation is not None
        assert verdict.violation.scenario

    def test_safe_algorithm_is_not_refuted(self):
        verdict = refute_round_one_decision(FloodSetWS(), 3, 1)
        assert not verdict.has_round_one_property
        assert not verdict.refuted
        assert "Λ >= 2" in verdict.describe()


class TestCandidateBehaviours:
    def test_a1_halt_still_breaks(self):
        """The FloodSetWS-style repair does not save A1 — the paper's
        'modifications ... do not preclude such disagreement'."""
        verdict = refute_round_one_decision(A1Halt(), 3, 1)
        assert verdict.refuted

    def test_min_round_one_breaks(self):
        verdict = refute_round_one_decision(MinRoundOne(), 3, 1)
        assert verdict.refuted

    def test_leader_or_own_breaks(self):
        verdict = refute_round_one_decision(LeaderOrOwn(), 3, 1)
        assert verdict.refuted
