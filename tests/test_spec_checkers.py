"""Tests for the consensus / uniform consensus specification checkers."""

from __future__ import annotations

from typing import Any, Mapping

import pytest

from repro.consensus import (
    check_consensus_run,
    check_uniform_consensus_run,
    check_many,
)
from repro.consensus.spec import SpecViolation
from repro.rounds import FailureScenario, RoundModel, run_rs
from repro.rounds.algorithm import RoundAlgorithm, broadcast
from repro.rounds.scenario import CrashEvent


class FixedDecision(RoundAlgorithm):
    """Decides a per-process scripted value at round 1 (for clause tests)."""

    name = "fixed"

    def __init__(self, decisions: Mapping[int, Any]) -> None:
        self.decisions = dict(decisions)

    def initial_state(self, pid, n, t, value):
        return {"pid": pid, "rounds": 0, "decision": None}

    def messages(self, pid, state):
        return {}

    def transition(self, pid, state, received):
        return {
            "pid": pid,
            "rounds": state["rounds"] + 1,
            "decision": self.decisions.get(pid),
        }

    def decision_of(self, state):
        return state["decision"]


def run_fixed(decisions, values=(0, 1, 1), scenario=None):
    scenario = scenario or FailureScenario.failure_free(len(values))
    return run_rs(
        FixedDecision(decisions), list(values), scenario, t=1, max_rounds=2
    )


class TestUniformAgreementClause:
    def test_split_decision_flagged(self):
        run = run_fixed({0: 0, 1: 1, 2: 1})
        violations = check_uniform_consensus_run(run)
        assert any(v.clause == "uniform agreement" for v in violations)

    def test_agreeing_decisions_pass(self):
        run = run_fixed({0: 1, 1: 1, 2: 1})
        clauses = {v.clause for v in check_uniform_consensus_run(run)}
        assert "uniform agreement" not in clauses

    def test_faulty_process_counts_for_uniform(self):
        scenario = FailureScenario(
            n=3,
            crashes=(
                CrashEvent(
                    pid=0,
                    round=1,
                    sent_to=frozenset({1, 2}),
                    applies_transition=True,
                ),
            ),
        )
        run = run_fixed({0: 0, 1: 1, 2: 1}, scenario=scenario)
        uniform = check_uniform_consensus_run(run)
        plain = check_consensus_run(run)
        assert any(v.clause == "uniform agreement" for v in uniform)
        assert not any(v.clause == "agreement" for v in plain)


class TestValidityClauses:
    def test_unanimous_input_other_decision_flagged(self):
        run = run_fixed({0: 1, 1: 1, 2: 1}, values=(0, 0, 0))
        violations = check_uniform_consensus_run(run)
        # Validity implies uniform validity: one finding per decider.
        assert [v.clause for v in violations] == ["validity"] * 3

    def test_decision_outside_proposals_flagged(self):
        run = run_fixed({0: 9, 1: 9, 2: 9})
        violations = check_uniform_consensus_run(run)
        assert any(v.clause == "validity" for v in violations)


class TestTerminationClause:
    def test_undecided_correct_process_flagged(self):
        run = run_fixed({0: 1, 1: 1})  # p2 never decides
        violations = check_uniform_consensus_run(run)
        assert any(
            v.clause == "termination" and "p2" in v.detail
            for v in violations
        )

    def test_undecided_faulty_process_not_flagged(self):
        scenario = FailureScenario(
            n=3, crashes=(CrashEvent(pid=2, round=1),)
        )
        run = run_fixed({0: 1, 1: 1}, scenario=scenario)
        violations = check_uniform_consensus_run(run)
        assert not any(v.clause == "termination" for v in violations)


class TestCheckMany:
    def test_aggregates_violations(self):
        runs = [run_fixed({0: 0, 1: 1, 2: 1}) for _ in range(3)]
        violations = check_many(runs)
        assert len(violations) == 3

    def test_custom_checker(self):
        runs = [run_fixed({0: 0, 1: 1, 2: 1})]
        # Consensus checker: all deciders correct & split -> agreement.
        violations = check_many(runs, checker=check_consensus_run)
        assert any(v.clause == "agreement" for v in violations)


class TestViolationFormatting:
    def test_str_contains_context(self):
        run = run_fixed({0: 0, 1: 1, 2: 1})
        violation = check_uniform_consensus_run(run)[0]
        text = str(violation)
        assert "uniform agreement" in text
        assert "values=" in text
