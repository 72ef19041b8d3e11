"""Tests for run indistinguishability — checking Theorem 3.1's engine."""

from __future__ import annotations

import pytest

from repro.failures import FailurePattern
from repro.failures.history import ConstantHistory
from repro.obs import EventLog, local_view
from repro.sdd.impossibility import (
    SP_CANDIDATE_FACTORIES,
    _run_quadruple_member,
)
from repro.sdd.spec import RECEIVER, SENDER
from repro.sdd.ss_algorithm import SDDSender
from repro.simulation import ScriptedScheduler, StepExecutor
from repro.simulation.automaton import IdleAutomaton
from tests.reference.observations import first_divergence, observations


class TestObservations:
    def test_empty_for_non_stepping_process(self):
        pattern = FailurePattern.with_crashes(2, {0: 0})
        executor = StepExecutor(
            IdleAutomaton(), 2, pattern, ScriptedScheduler([(1, "all")] * 3)
        )
        run = executor.execute(3)
        assert observations(run, 0) == []
        assert len(observations(run, 1)) == 3

    def test_payloads_captured_in_delivery_order(self):
        pattern = FailurePattern.crash_free(2)
        executor = StepExecutor(
            [SDDSender("v"), IdleAutomaton()],
            2,
            pattern,
            ScriptedScheduler([(0, "all"), (1, "all")]),
        )
        run = executor.execute(2)
        obs = observations(run, 1)
        assert obs[0].payloads == ("v",)

    def test_suspects_recorded(self):
        pattern = FailurePattern.with_crashes(2, {0: 0})
        executor = StepExecutor(
            IdleAutomaton(),
            2,
            pattern,
            ScriptedScheduler([(1, "all")]),
            history=ConstantHistory({0}),
        )
        run = executor.execute(1)
        assert observations(run, 1)[0].suspects == frozenset({0})


class TestTheoremQuadruple:
    """The structural core of Theorem 3.1: the receiver cannot tell the
    four runs apart — now asserted directly, not via equal decisions."""

    @pytest.mark.parametrize("name", sorted(SP_CANDIDATE_FACTORIES))
    def test_all_pairs_indistinguishable_to_receiver(self, name):
        factory = SP_CANDIDATE_FACTORIES[name]
        runs, traces = {}, {}
        for label, (value, steps) in {
            "r0": (0, 0),
            "r0'": (0, 1),
            "r1": (1, 0),
            "r1'": (1, 1),
        }.items():
            traces[label] = EventLog()
            runs[label] = _run_quadruple_member(
                factory(), value, steps, 60, observer=traces[label]
            )
        labels = sorted(runs)
        for i, a in enumerate(labels):
            for b in labels[i + 1:]:
                divergence = first_divergence(runs[a], runs[b], RECEIVER)
                assert divergence is None, f"{a} vs {b}: {divergence}"
                assert local_view(
                    traces[a].events, RECEIVER
                ) == local_view(traces[b].events, RECEIVER), f"{a} vs {b}"

    def test_runs_are_distinguishable_to_an_outside_observer(self):
        """Sanity: the runs differ (the sender acts differently) — the
        magic is that the *receiver* can't see it."""
        factory = SP_CANDIDATE_FACTORIES["suspicion"]
        r0 = _run_quadruple_member(factory(), 0, 0, 60)
        r0p = _run_quadruple_member(factory(), 0, 1, 60)
        assert len(r0p.messages_sent_by(SENDER)) == 1
        assert len(r0.messages_sent_by(SENDER)) == 0


class TestDivergence:
    def test_first_divergence_located(self):
        pattern = FailurePattern.crash_free(2)

        def run_with_history(history):
            executor = StepExecutor(
                IdleAutomaton(),
                2,
                pattern,
                ScriptedScheduler([(1, "all")] * 4),
                history=history,
            )
            return executor.execute(4)

        run_a = run_with_history(ConstantHistory(set()))
        run_b = run_with_history(ConstantHistory({0}))
        divergence = first_divergence(run_a, run_b, 1)
        assert divergence is not None
        index, obs_a, obs_b = divergence
        assert index == 0
        assert obs_a.suspects != obs_b.suspects

    def test_no_divergence_returns_none(self):
        pattern = FailurePattern.crash_free(2)
        executor = StepExecutor(
            IdleAutomaton(), 2, pattern, ScriptedScheduler([(1, "all")] * 3)
        )
        run = executor.execute(3)
        assert first_divergence(run, run, 1) is None
