"""Tests for the RS/RWS round executor."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.consensus import FloodSet
from repro.errors import ConfigurationError, ScenarioError
from repro.fuzz.strategies import rounds_requests
from repro.mc.explore import explore
from repro.rounds import (
    CrashEvent,
    FailureScenario,
    PendingMessage,
    RoundModel,
    execute,
    run_rs,
    run_rws,
)
from repro.rounds.executor import complete_round, round_messages
from repro.runtime.registry import ALGORITHM_FACTORIES, make_algorithm
from repro.workloads import a1_rws_disagreement
from tests.reference.validators import (
    check_round_synchrony,
    check_weak_round_synchrony,
)


def rs(values, scenario, t=1, **kw):
    return run_rs(FloodSet(), values, scenario, t=t, **kw)


class TestFailureFreeExecution:
    def test_floodset_decides_min_at_t_plus_one(self):
        run = rs([2, 0, 1], FailureScenario.failure_free(3))
        assert run.decision_value(0) == 0
        assert all(run.decision_round(p) == 2 for p in range(3))

    def test_latency_is_max_correct_decision_round(self):
        run = rs([0, 1, 1], FailureScenario.failure_free(3))
        assert run.latency() == 2

    def test_early_stop_on_quiescence(self):
        run = rs([0, 1, 1], FailureScenario.failure_free(3), max_rounds=9)
        assert run.num_rounds == 2  # stops once everyone decided

    def test_run_all_rounds_forces_full_horizon(self):
        run = rs(
            [0, 1, 1],
            FailureScenario.failure_free(3),
            max_rounds=4,
            run_all_rounds=True,
        )
        assert run.num_rounds == 4

    def test_round_records_track_sends(self):
        run = rs([0, 1, 1], FailureScenario.failure_free(3))
        first = run.rounds[0]
        assert (0, 1) in first.sent and (2, 0) in first.sent
        assert first.transitioned == frozenset({0, 1, 2})


class TestCrashSemantics:
    def test_initially_dead_sends_nothing(self):
        scenario = FailureScenario.initially_dead_set(3, {0})
        run = rs([0, 1, 1], scenario)
        assert all(sender != 0 for sender, _ in run.rounds[0].sent)
        # Survivors never learn 0 and decide 1.
        assert run.decision_value(1) == 1

    def test_partial_broadcast_reaches_exact_subset(self):
        scenario = FailureScenario(
            n=3, crashes=(CrashEvent(pid=0, round=1, sent_to=frozenset({1})),)
        )
        run = rs([0, 1, 1], scenario)
        first = run.rounds[0]
        assert (0, 1) in first.sent
        assert (0, 2) not in first.sent
        # The flood relays value 0 in round 2; both survivors decide 0.
        assert run.decision_value(1) == 0
        assert run.decision_value(2) == 0

    def test_crashed_process_never_transitions_without_flag(self):
        scenario = FailureScenario(
            n=3, crashes=(CrashEvent(pid=0, round=1, sent_to=frozenset({1})),)
        )
        run = rs([0, 1, 1], scenario)
        assert 0 not in run.rounds[0].transitioned
        assert 0 not in run.decisions

    def test_applies_transition_lets_crasher_decide(self):
        scenario = a1_rws_disagreement(3)  # p0 decides then crashes
        from repro.consensus import A1

        run = run_rws(A1(), [0, 1, 1], scenario, t=1)
        assert run.decision_value(0) == 0
        assert run.decision_round(0) == 1

    def test_crashed_stays_dead(self):
        scenario = FailureScenario(
            n=3, crashes=(CrashEvent(pid=1, round=1),)
        )
        run = rs([0, 1, 1], scenario, max_rounds=3, run_all_rounds=True)
        for record in run.rounds:
            assert all(sender != 1 for sender, _ in record.sent)


class TestPendingSemantics:
    def test_pending_withheld_from_recipient(self):
        scenario = FailureScenario(
            n=3,
            crashes=(CrashEvent(pid=0, round=1, sent_to=frozenset({1, 2})),),
            pending=frozenset({PendingMessage(0, 2, 1)}),
        )
        run = run_rws(FloodSet(), [0, 1, 1], scenario, t=1)
        first = run.rounds[0]
        assert 0 in first.delivered[1]
        assert 0 not in first.delivered[2]
        assert (0, 2) in first.sent  # sent, just not delivered

    def test_self_delivery_cannot_be_pending(self):
        # PendingMessage construction forbids it outright.
        with pytest.raises(ScenarioError):
            PendingMessage(0, 0, 1)

    def test_rs_rejects_pending(self):
        scenario = FailureScenario(
            n=3,
            crashes=(CrashEvent(pid=0, round=1, sent_to=frozenset({1, 2})),),
            pending=frozenset({PendingMessage(0, 2, 1)}),
        )
        with pytest.raises(ScenarioError):
            run_rs(FloodSet(), [0, 1, 1], scenario, t=1)

    def test_invalid_scenario_rejected_by_default(self):
        scenario = FailureScenario(
            n=3, pending=frozenset({PendingMessage(0, 1, 1)})
        )
        with pytest.raises(ScenarioError):
            run_rws(FloodSet(), [0, 1, 1], scenario, t=1)


class TestValidators:
    def test_rs_run_satisfies_round_synchrony(self):
        scenario = FailureScenario(
            n=3, crashes=(CrashEvent(pid=0, round=1, sent_to=frozenset({1})),)
        )
        run = rs([0, 1, 1], scenario)
        assert check_round_synchrony(run) == []

    def test_rws_run_satisfies_weak_round_synchrony(self):
        run = run_rws(FloodSet(), [0, 1, 1], a1_rws_disagreement(3), t=1)
        assert check_weak_round_synchrony(run) == []

    def test_pending_run_fails_strict_round_synchrony(self):
        run = run_rws(FloodSet(), [0, 1, 1], a1_rws_disagreement(3), t=1)
        assert check_round_synchrony(run)


class TestExecutorValidation:
    def test_values_scenario_size_mismatch(self):
        with pytest.raises(ConfigurationError):
            execute(
                FloodSet(),
                [0, 1],
                FailureScenario.failure_free(3),
                t=1,
                model=RoundModel.RS,
                max_rounds=3,
            )

    def test_decisions_capture_first_round_only(self):
        run = rs([1, 1, 1], FailureScenario.failure_free(3), max_rounds=4,
                 run_all_rounds=True)
        assert run.decision_round(0) == 2  # not overwritten later

    def test_decided_values_accessor(self):
        run = rs([0, 1, 1], FailureScenario.failure_free(3))
        assert run.decided_values() == {0}


def fold_round_step(algorithm, values, scenario, *, t, max_rounds):
    """``execute`` written out by hand over the two-phase round step."""
    n = len(values)
    states = [algorithm.initial_state(p, n, t, values[p]) for p in range(n)]
    crash_of = {event.pid: event for event in scenario.crashes}
    decisions, steps = {}, []
    for index in range(1, max_rounds + 1):
        starters = [p for p in range(n) if scenario.alive_at_start(p, index)]
        step = complete_round(
            algorithm,
            states,
            round_messages(algorithm, states, starters, n),
            index,
            {p: c for p, c in crash_of.items() if c.round == index},
            {(m.sender, m.recipient) for m in scenario.pending if m.round == index},
        )
        steps.append(step)
        for pid, state in step.states.items():
            states[pid] = state
        for pid, entry in step.decisions.items():
            decisions.setdefault(pid, entry)
        if all(
            algorithm.halted(p, states[p])
            for p in range(n)
            if scenario.alive_at_start(p, index + 1)
        ):
            break
    return steps, states, decisions


class TestRoundStep:
    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("model", ["RS", "RWS"])
    def test_folding_the_step_by_hand_is_execute(self, model, t):
        # A1 is defined for t = 1 only.
        pool = sorted(set(ALGORITHM_FACTORIES) - ({"a1"} if t > 1 else set()))

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(request=rounds_requests(model=model, n=4, t=t, algorithms=pool))
        def check(request):
            run = execute(
                make_algorithm(request.algorithm),
                request.values,
                request.scenario,
                t=request.t,
                model=RoundModel(model),
                max_rounds=request.max_rounds,
            )
            steps, states, decisions = fold_round_step(
                make_algorithm(request.algorithm),
                request.values,
                request.scenario,
                t=request.t,
                max_rounds=request.max_rounds,
            )
            assert len(steps) == run.num_rounds
            for record, step in zip(run.rounds, steps):
                assert list(record.sent.items()) == list(step.sent.items())
                assert record.delivered == step.delivered
                assert record.transitioned == step.transitioned
                assert record.crashed == step.crashed
            assert run.final_states == dict(enumerate(states))
            assert run.decisions == decisions

        check()

    def test_the_step_does_not_mutate_its_arguments(self):
        algorithm = FloodSet()
        states = tuple(algorithm.initial_state(p, 3, 1, p) for p in range(3))
        outgoing = round_messages(algorithm, states, range(3), 3)
        before = (states, {p: dict(m) for p, m in outgoing.items()})
        crash = CrashEvent(pid=0, round=1, sent_to=frozenset({1}))
        step = complete_round(algorithm, states, outgoing, 1, {0: crash}, {(1, 2)})
        assert (states, {p: dict(m) for p, m in outgoing.items()}) == before
        assert list(step.sent) == [(0, 1), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
        assert step.withheld == {(1, 2)}
        assert step.delivered[2] == {2: frozenset({2})}
        assert (step.transitioned, step.crashed) == ({1, 2}, {0})

    def test_two_drivers_of_a_round_algorithm(self):
        """Who may call ``trans_i``: the round step and the round-on-steps
        synchronizer — see the table in docs/architecture.md before
        adding a third."""
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        sites = sorted(
            str(path.relative_to(src))
            for path in src.rglob("*.py")
            if path.parts[-2] != "consensus"
            and path.relative_to(src) != Path("rounds/algorithm.py")
            for line in path.read_text().splitlines()
            if ".transition(" in line
        )
        assert sites == [
            "emulation/synchronizer.py",
            "rounds/executor.py",
        ]


class _StrayRecipient(FloodSet):
    """FloodSet that also addresses the non-existent process ``n``."""

    name = "stray-recipient"

    def messages(self, pid, state):
        outgoing = dict(super().messages(pid, state))
        outgoing[len(outgoing)] = next(iter(outgoing.values()))
        return outgoing


class TestUnknownRecipient:
    @pytest.mark.parametrize("model", ["RS", "RWS"])
    def test_explore_and_execute_raise_the_same_error(self, model, monkeypatch):
        # The registry is read-only: hand the explorer the stray
        # algorithm where it asks the registry for one.
        monkeypatch.setattr(
            sys.modules["repro.mc.explore"],
            "make_algorithm",
            lambda name: _StrayRecipient(),
        )
        with pytest.raises(ConfigurationError) as executed:
            execute(
                _StrayRecipient(),
                (0, 1, 1),
                FailureScenario.failure_free(3),
                t=1,
                model=RoundModel(model),
                max_rounds=2,
            )
        with pytest.raises(ConfigurationError) as explored:
            explore("stray-recipient", n=3, t=1, model=model, horizon=2)
        assert "addressed unknown process 3" in str(executed.value)
        assert str(explored.value) == str(executed.value)
