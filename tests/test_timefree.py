"""Tests for the time-freeness machinery (paper Section 2.7)."""

from __future__ import annotations

import random

import pytest

from repro.analysis import (
    check_time_free_execution,
    random_linear_extension,
    reexecute_with_projections,
)
from repro.errors import ExecutionError
from repro.failures import FailurePattern, TimeoutPerfectDetector
from repro.models import SynchronousModel
from repro.obs import EventLog, local_view
from repro.sdd import sdd_decision, solve_sdd_ss
from repro.sdd.ss_algorithm import SDDReceiverSS, SDDSender
from repro.simulation import ScriptedScheduler, StepExecutor
from tests.reference.observations import observations


def sdd_run(seed=0, value=1, crashes=None, phi=2, delta=2):
    rng = random.Random(seed)
    pattern = FailurePattern.with_crashes(2, crashes or {})
    run = solve_sdd_ss(value, pattern, phi=phi, delta=delta, rng=rng)
    automata = [SDDSender(value), SDDReceiverSS(phi, delta)]
    return run, automata


def recorded(run, automata):
    """The trace of ``run``, recorded by re-executing its own schedule."""
    log = EventLog()
    script = [(step.pid, step.received_uids) for step in run.schedule]
    StepExecutor(
        automata, run.n, run.pattern, ScriptedScheduler(script), observer=log
    ).execute(len(script))
    return log.events


class TestLinearExtensions:
    def test_preserves_per_process_step_counts(self):
        run, _ = sdd_run()
        order = random_linear_extension(run, random.Random(1))
        assert len(order) == len(run.schedule)
        for pid in range(run.n):
            original = sum(1 for s in run.schedule if s.pid == pid)
            replayed = sum(1 for node in order if node.pid == pid)
            assert original == replayed

    def test_respects_per_process_order(self):
        run, _ = sdd_run()
        order = random_linear_extension(run, random.Random(2))
        last_local = {pid: -1 for pid in range(run.n)}
        for node in order:
            assert node.local_index == last_local[node.pid] + 1
            last_local[node.pid] = node.local_index

    def test_respects_send_receive_causality(self):
        run, _ = sdd_run()
        order = random_linear_extension(run, random.Random(3))
        position = {
            (node.pid, node.local_index): i for i, node in enumerate(order)
        }
        for node in order:
            for dep in node.depends_on:
                assert position[dep] < position[(node.pid, node.local_index)]

    def test_extensions_vary(self):
        """With concurrency present, different seeds give different
        interleavings (else the test is vacuous)."""
        run, _ = sdd_run()
        orders = {
            tuple((n.pid, n.local_index) for n in
                  random_linear_extension(run, random.Random(seed)))
            for seed in range(8)
        }
        assert len(orders) > 1


class TestReexecution:
    def test_projections_preserved(self):
        run, automata = sdd_run(seed=5)
        replay = reexecute_with_projections(run, automata, random.Random(7))
        before, after = recorded(run, automata), recorded(replay, automata)
        for pid in range(run.n):
            assert observations(run, pid) == observations(replay, pid)
            assert local_view(before, pid) == local_view(after, pid)

    def test_sdd_outcome_invariant(self):
        run, automata = sdd_run(seed=5)
        problems = check_time_free_execution(
            run,
            automata,
            outcome=lambda r, pid: getattr(
                r.final_states[pid], "decisions", None
            ),
            rng=random.Random(11),
            attempts=4,
        )
        assert problems == []

    @pytest.mark.parametrize("seed", range(6))
    def test_sdd_with_crashes_invariant(self, seed):
        crashes = {0: (seed % 4) + 1} if seed % 2 else {}
        run, automata = sdd_run(seed=seed, crashes=crashes)
        problems = check_time_free_execution(
            run,
            automata,
            outcome=lambda r, pid: getattr(
                r.final_states[pid], "decisions", None
            ),
            rng=random.Random(seed),
        )
        assert problems == []

    def test_detector_outcomes_invariant(self):
        """The timeout detector's final suspicions are a function of the
        projections too (suspicion sets are re-fed positionally)."""
        n, phi, delta = 3, 1, 1
        pattern = FailurePattern.with_crashes(n, {1: 10})
        model = SynchronousModel(phi=phi, delta=delta)
        automaton = TimeoutPerfectDetector(n, phi, delta)
        run = model.executor(
            automaton, n, pattern, rng=random.Random(3)
        ).execute(120)
        problems = check_time_free_execution(
            run,
            automaton,
            outcome=lambda r, pid: r.final_states[pid].suspected,
            rng=random.Random(5),
            attempts=2,
        )
        assert problems == []

    @pytest.mark.parametrize("sender_steps", [0, 1])
    def test_replayed_detector_history_keeps_views(self, sender_steps):
        """A run whose detector history is replayed positionally: the
        suspicions keep their place in each process's view although
        the replay moves the crash (and with it the global detection
        delay, which no view holds)."""
        from repro.sdd.impossibility import (
            SP_CANDIDATE_FACTORIES,
            _run_quadruple_member,
        )

        factory = SP_CANDIDATE_FACTORIES["suspicion"]
        run = _run_quadruple_member(factory(), 0, sender_steps, 60)
        assert any(step.suspects for step in run.schedule)
        problems = check_time_free_execution(
            run,
            [SDDSender(0), factory()],
            outcome=lambda r, pid: getattr(
                r.final_states[pid], "decisions", None
            ),
            rng=random.Random(1),
        )
        assert problems == []

    def test_a_time_sensitive_automaton_is_not_invariant(self):
        """Sanity check in the other direction: an automaton whose
        output depends on the *global* interleaving (via message uids,
        which are global send counters) is flagged — provided the run
        has genuine concurrency (two causally unordered sends)."""
        from repro.simulation import ScriptedScheduler, StepExecutor
        from repro.simulation.automaton import StepAutomaton, StepOutcome

        class UidSniffer(StepAutomaton):
            """Records raw message uids — global information a real
            process could not observe."""

            def initial_state(self, pid, n):
                return ()

            def on_step(self, ctx):
                pairs = tuple(
                    sorted((m.sender, m.uid) for m in ctx.received)
                )
                state = ctx.state + pairs
                if ctx.pid in (0, 1) and ctx.local_step == 1:
                    return StepOutcome(
                        state=state, send_to=2, payload=f"from{ctx.pid}"
                    )
                return StepOutcome(state=state)

        pattern = FailurePattern.crash_free(3)
        # p0's and p1's sends are causally unordered; p2 receives both.
        executor = StepExecutor(
            UidSniffer(),
            3,
            pattern,
            ScriptedScheduler([(0, []), (1, []), (2, "all")]),
        )
        run = executor.execute(3)
        assert run.final_states[2] == ((0, 0), (1, 1))
        problems = []
        for seed in range(10):
            problems = check_time_free_execution(
                run,
                UidSniffer(),
                outcome=lambda r, pid: r.final_states[pid],
                rng=random.Random(seed),
                attempts=4,
            )
            if problems:
                break
        assert problems, (
            "uid-dependent state should diverge once the unordered "
            "sends swap their uid assignment"
        )
