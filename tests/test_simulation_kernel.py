"""Tests for the step-level simulation kernel."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError, ScheduleError
from repro.failures import FailurePattern
from repro.simulation import (
    RandomScheduler,
    RoundRobinScheduler,
    Schedule,
    ScriptedScheduler,
    Step,
    StepAutomaton,
    StepContext,
    StepExecutor,
    StepOutcome,
)
from repro.simulation.automaton import IdleAutomaton


class PingAutomaton(StepAutomaton):
    """Sends its step count to the next process; state is the count."""

    def initial_state(self, pid: int, n: int):
        return 0

    def on_step(self, ctx: StepContext) -> StepOutcome:
        target = (ctx.pid + 1) % ctx.n
        return StepOutcome(
            state=ctx.state + 1, send_to=target, payload=ctx.state + 1
        )


class EchoCollector(StepAutomaton):
    """Collects every received payload; never sends."""

    def initial_state(self, pid: int, n: int):
        return ()

    def on_step(self, ctx: StepContext) -> StepOutcome:
        payloads = tuple(m.payload for m in ctx.received)
        return StepOutcome(state=ctx.state + payloads)


def make_executor(automaton, n=3, crashes=None, scheduler=None):
    pattern = FailurePattern.with_crashes(n, crashes or {})
    return StepExecutor(
        automaton, n, pattern, scheduler or RoundRobinScheduler()
    )


class TestSchedule:
    def test_projection_selects_process_steps(self):
        schedule = Schedule(n=2)
        schedule.append(Step(0, 0, 0, (), None, None, 1))
        schedule.append(Step(1, 1, 1, (), None, None, 1))
        schedule.append(Step(2, 2, 0, (), None, None, 2))
        assert [s.index for s in schedule.projection(0)] == [0, 2]

    def test_append_requires_contiguous_indices(self):
        schedule = Schedule(n=1)
        with pytest.raises(ValueError):
            schedule.append(Step(3, 3, 0, (), None, None, 1))

    def test_step_counts(self):
        schedule = Schedule(n=2)
        schedule.append(Step(0, 0, 1, (), None, None, 1))
        assert schedule.step_counts() == {0: 0, 1: 1}


class TestExecutorBasics:
    def test_round_robin_gives_equal_steps(self):
        executor = make_executor(IdleAutomaton())
        run = executor.execute(9)
        assert run.schedule.step_counts() == {0: 3, 1: 3, 2: 3}

    def test_messages_are_routed_and_delivered(self):
        executor = make_executor(PingAutomaton(), n=2)
        run = executor.execute(10)
        # p0 and p1 alternate; every sent message is delivered next step.
        assert len(run.messages) == 10
        received = [
            run.messages[uid]
            for step in run.schedule
            if step.pid == 1
            for uid in step.received_uids
        ]
        assert all(m.sender == 0 for m in received)

    def test_crashed_process_takes_no_steps(self):
        executor = make_executor(IdleAutomaton(), crashes={1: 4})
        run = executor.execute(30)
        for step in run.schedule:
            assert run.pattern.is_alive(step.pid, step.time)

    def test_initially_dead_never_steps(self):
        executor = make_executor(IdleAutomaton(), crashes={0: 0})
        run = executor.execute(10)
        assert all(step.pid != 0 for step in run.schedule)

    def test_all_crashed_ends_run(self):
        pattern = FailurePattern.with_crashes(2, {0: 0, 1: 0})
        executor = StepExecutor(
            IdleAutomaton(), 2, pattern, RoundRobinScheduler()
        )
        run = executor.execute(10)
        assert len(run.schedule) == 0

    def test_stop_when_predicate(self):
        executor = make_executor(PingAutomaton(), n=2)
        run = executor.execute(100, stop_when=lambda s: s[0] >= 3)
        assert run.final_states[0] == 3

    def test_undelivered_tracked(self):
        # Sender sends to p1 but p1 crashes immediately: messages pile up.
        executor = make_executor(
            PingAutomaton(), n=2, crashes={1: 0}
        )
        run = executor.execute(6)
        assert len(run.undelivered[1]) == 6
        # p1 is faulty, so these do not count against admissibility.
        assert run.undelivered_to_correct() == []

    def test_local_step_counter(self):
        executor = make_executor(IdleAutomaton(), n=2)
        run = executor.execute(6)
        locals_of_p0 = [s.local_step for s in run.steps_of(0)]
        assert locals_of_p0 == [1, 2, 3]

    def test_record_states_snapshots(self):
        executor = StepExecutor(
            PingAutomaton(),
            2,
            FailurePattern.crash_free(2),
            RoundRobinScheduler(),
            record_states=True,
        )
        run = executor.execute(4)
        assert len(run.state_snapshots) == 4


class TestExecutorValidation:
    def test_pattern_size_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            StepExecutor(
                IdleAutomaton(),
                3,
                FailurePattern.crash_free(2),
                RoundRobinScheduler(),
            )

    def test_wrong_automata_count_rejected(self):
        with pytest.raises(ConfigurationError):
            StepExecutor(
                [IdleAutomaton()],
                2,
                FailurePattern.crash_free(2),
                RoundRobinScheduler(),
            )

    def test_scheduler_choosing_crashed_process_rejected(self):
        executor = StepExecutor(
            IdleAutomaton(),
            2,
            FailurePattern.with_crashes(2, {1: 0}),
            ScriptedScheduler([(1, "all")]),
        )
        with pytest.raises(ScheduleError):
            executor.execute(1)

    def test_send_to_unknown_process_rejected(self):
        class BadSender(StepAutomaton):
            def initial_state(self, pid, n):
                return None

            def on_step(self, ctx):
                return StepOutcome(state=None, send_to=99, payload="x")

        executor = make_executor(BadSender(), n=2)
        with pytest.raises(ScheduleError):
            executor.execute(1)


class TestSchedulers:
    def test_random_scheduler_only_picks_alive(self, rng):
        pattern = FailurePattern.with_crashes(3, {0: 5})
        executor = StepExecutor(
            IdleAutomaton(), 3, pattern, RandomScheduler(rng)
        )
        run = executor.execute(50)
        for step in run.schedule:
            assert pattern.is_alive(step.pid, step.time)

    def test_random_scheduler_eventually_delivers(self, rng):
        executor = StepExecutor(
            PingAutomaton(),
            2,
            FailurePattern.crash_free(2),
            RandomScheduler(rng, delivery_prob=0.1, max_age=15),
        )
        run = executor.execute(300)
        # With forced delivery at max_age, nothing old remains buffered.
        for pending in run.undelivered.values():
            for message in pending:
                assert len(run.schedule) - message.sent_step < 40

    def test_random_scheduler_rejects_bad_probability(self, rng):
        with pytest.raises(ScheduleError):
            RandomScheduler(rng, delivery_prob=1.5)

    def test_scripted_scheduler_replays_script(self):
        executor = StepExecutor(
            PingAutomaton(),
            2,
            FailurePattern.crash_free(2),
            ScriptedScheduler([(0, "all"), (0, "all"), (1, "all")]),
        )
        run = executor.execute(10)
        assert [s.pid for s in run.schedule] == [0, 0, 1]

    def test_scripted_scheduler_delivers_selected_uids(self):
        # p0 sends twice to p1, then p1 receives only the first message.
        executor = StepExecutor(
            PingAutomaton(),
            2,
            FailurePattern.crash_free(2),
            ScriptedScheduler([(0, "all"), (0, "all"), (1, [0])]),
        )
        run = executor.execute(3)
        assert run.schedule[2].received_uids == (0,)
        assert len(run.undelivered[1]) == 1

    def test_scripted_scheduler_callable_selector(self):
        executor = StepExecutor(
            PingAutomaton(),
            2,
            FailurePattern.crash_free(2),
            ScriptedScheduler(
                [(0, "all"), (1, lambda buffered: [m.uid for m in buffered])]
            ),
        )
        run = executor.execute(2)
        assert run.schedule[1].received_uids == (0,)

    def test_scripted_scheduler_unknown_uid_rejected(self):
        executor = StepExecutor(
            IdleAutomaton(),
            2,
            FailurePattern.crash_free(2),
            ScriptedScheduler([(0, [42])]),
        )
        with pytest.raises(ScheduleError):
            executor.execute(1)

    def test_scripted_scheduler_exhaustion_ends_run(self):
        executor = StepExecutor(
            IdleAutomaton(),
            2,
            FailurePattern.crash_free(2),
            ScriptedScheduler([(0, "all")]),
        )
        run = executor.execute(10)
        assert len(run.schedule) == 1


class TestRunUntilQuiet:
    def test_stops_when_correct_processes_decided(self):
        class DecideAfterThree(StepAutomaton):
            def initial_state(self, pid, n):
                return 0

            def on_step(self, ctx):
                return StepOutcome(state=ctx.state + 1)

        executor = make_executor(DecideAfterThree(), n=2)
        # Nothing crashes, so the run is quiet once every process decided.
        run = executor.execute(
            100, stop_when=lambda states: all(s >= 3 for s in states.values())
        )
        assert all(v >= 3 for v in run.final_states.values())
        assert len(run.schedule) <= 8
