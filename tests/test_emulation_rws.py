"""Tests for the RWS-on-SP emulation and Lemma 4.1."""

from __future__ import annotations

import random

import pytest

from repro.consensus import FloodSet, FloodSetWS
from repro.emulation import (
    check_emulated_weak_round_synchrony,
    count_pending_messages,
    emulate_rws_on_sp,
)
from repro.failures import FailurePattern


def emulate(seed, algorithm=None, crash_time=None, **kwargs):
    rng = random.Random(seed)
    crashes = {}
    if crash_time is not None:
        crashes[0] = crash_time
    pattern = FailurePattern.with_crashes(3, crashes)
    defaults = dict(
        t=1,
        num_rounds=2,
        rng=rng,
        max_detection_delay=2,
        delivery_prob=0.15,
        max_age=80,
    )
    defaults.update(kwargs)
    return emulate_rws_on_sp(
        algorithm or FloodSetWS(), [0, 1, 1], pattern, **defaults
    )


class TestLemma41:
    @pytest.mark.parametrize("seed", range(12))
    def test_weak_round_synchrony_always_holds(self, seed):
        trace = emulate(seed, crash_time=3 + seed)
        assert check_emulated_weak_round_synchrony(trace) == []

    def test_pending_messages_do_occur(self):
        total = sum(
            count_pending_messages(emulate(seed, crash_time=3 + seed))
            for seed in range(20)
        )
        assert total > 0, "Lemma 4.1 would be checked vacuously"

    def test_no_pending_without_crashes(self):
        """Perfect accuracy means live processes are never suspected, so
        every message is awaited: pending needs a crash."""
        for seed in range(5):
            trace = emulate(seed)  # crash-free
            assert count_pending_messages(trace) == 0


class TestEmulatedExecution:
    @pytest.mark.parametrize("seed", range(6))
    def test_floodsetws_agreement_through_emulation(self, seed):
        trace = emulate(seed, crash_time=2 + seed)
        decided = {
            trace.decisions[pid][1]
            for pid in (1, 2)
            if trace.decisions[pid] is not None
        }
        assert len(decided) == 1

    def test_crash_free_decides_min(self):
        trace = emulate(3)
        assert all(trace.decisions[pid] == (2, 0) for pid in range(3))

    def test_correct_processes_complete_all_rounds(self):
        trace = emulate(1, crash_time=4)
        assert trace.completed_rounds[1] == 2
        assert trace.completed_rounds[2] == 2

    def test_crashed_process_lags(self):
        trace = emulate(2, crash_time=1)
        assert trace.completed_rounds[0] < 2

    def test_plain_floodset_disagrees_on_the_real_sp_substrate(self):
        """The RWS anomaly is not an artefact of the round abstraction:
        a hand-scheduled SP execution of plain FloodSet splits correct
        processes.  The schedule realises the paper's scenario at the
        step level: p0's round-1 broadcasts are delayed past the
        suspicion, p0 crashes between its two round-2 sends, and the
        one round-2 message it did send smuggles value 0 to p1 only."""
        from repro.emulation.synchronizer import RoundOnSPAutomaton
        from repro.failures import FailurePattern
        from repro.failures.history import FunctionHistory
        from repro.simulation import ScriptedScheduler, StepExecutor

        automaton = RoundOnSPAutomaton(FloodSet(), 3, 1, [0, 1, 1], 2)
        pattern = FailurePattern.with_crashes(3, {0: 7})
        history = FunctionHistory(
            lambda pid, t: {0} if t >= 7 else set()
        )

        def not_from_p0(buffered):
            return [m.uid for m in buffered if m.sender != 0]

        def everything(buffered):
            return [m.uid for m in buffered]

        script = [
            (1, []), (1, []),          # p1 sends its round-1 messages
            (2, []), (2, []),          # p2 sends its round-1 messages
            (0, "all"), (0, "all"),    # p0 sends round 1, completes it
            (0, "all"),                # p0 sends round-2 W={0,1} to p1...
            # ... and crashes at time 7, before sending to p2.
            (1, not_from_p0),          # p1 completes round 1 (p0 suspected)
            (1, []), (1, []),          # p1 sends round-2 messages
            (2, not_from_p0),          # p2 completes round 1 (p0 suspected)
            (2, []), (2, []),          # p2 sends round-2 messages
            (1, everything),           # p1 gets p0's round-2 W -> decides 0
            (2, not_from_p0),          # p2 never hears p0 -> decides 1
        ]
        executor = StepExecutor(
            automaton, 3, pattern, ScriptedScheduler(script), history=history
        )
        run = executor.execute(len(script))
        decisions = {
            pid: FloodSet().decision_of(run.final_states[pid].algo_state)
            for pid in (1, 2)
        }
        assert decisions == {1: 0, 2: 1}
