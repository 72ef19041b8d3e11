"""Tests for the workload builders."""

from __future__ import annotations

from repro.rounds import validate_scenario
from repro.workloads import (
    a1_rws_disagreement,
    adversarial_split,
    crash_mid_broadcast,
    decide_then_crash_pending,
    failure_free,
    floodset_rws_violation,
    initially_dead_t,
    unanimous,
)


class TestConfigs:
    def test_unanimous(self):
        assert unanimous(3, 4) == (4, 4, 4)

    def test_adversarial_split(self):
        assert adversarial_split(4) == (0, 1, 1, 1)


class TestScenarios:
    def test_failure_free(self):
        scenario = failure_free(3)
        assert scenario.num_failures() == 0

    def test_initially_dead_t(self):
        scenario = initially_dead_t(4, 2)
        assert scenario.initially_dead() == frozenset({2, 3})
        assert validate_scenario(scenario, t=2, allow_pending=False) == []

    def test_crash_mid_broadcast(self):
        scenario = crash_mid_broadcast(3, pid=1, reached=(0,))
        event = scenario.crash_of(1)
        assert event.sent_to == frozenset({0})
        assert validate_scenario(scenario, t=1, allow_pending=False) == []

    def test_decide_then_crash_pending_is_rws_admissible(self):
        scenario = decide_then_crash_pending(4, pid=2)
        assert validate_scenario(scenario, t=1, allow_pending=True) == []
        event = scenario.crash_of(2)
        assert event.applies_transition
        assert len(scenario.pending) == 3

    def test_a1_scenario_alias(self):
        assert a1_rws_disagreement(3) == decide_then_crash_pending(3, pid=0)

    def test_floodset_violation_scenario_admissible(self):
        scenario = floodset_rws_violation(3)
        assert validate_scenario(scenario, t=1, allow_pending=True) == []
        assert scenario.crash_of(0).round == 2
