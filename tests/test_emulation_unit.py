"""Unit tests for the emulation automata's internal mechanics."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.consensus import FloodSet
from repro.emulation.synchronizer import (
    RoundOnSPAutomaton,
    RoundOnSSAutomaton,
    round_deadlines,
)
from repro.errors import ConfigurationError
from repro.failures import FailurePattern
from repro.inject import INJECT_ENV
from repro.runtime.harness import execute_request
from repro.runtime.request import ExecutionRequest
from repro.simulation.automaton import StepContext
from repro.simulation.message import Message


def make_rs_automaton(n=3, phi=1, delta=1, rounds=2):
    return RoundOnSSAutomaton(
        FloodSet(), n, 1, [0, 1, 2][:n], phi, delta, rounds
    )


def ctx(automaton, pid, state, received=(), suspects=None, local_step=1):
    messages = tuple(
        Message(uid=i, sender=sender, recipient=pid, payload=payload,
                sent_step=0)
        for i, (sender, payload) in enumerate(received)
    )
    return StepContext(
        pid=pid,
        n=automaton.n,
        state=state,
        received=messages,
        local_step=local_step,
        suspects=suspects,
    )


class TestRoundOnSSInternals:
    def test_initial_outbox_excludes_self(self):
        automaton = make_rs_automaton()
        state = automaton.initial_state(0, 3)
        recipients = [recipient for recipient, _ in state.outbox]
        assert recipients == [1, 2]
        assert state.self_payload == frozenset({0})

    def test_sends_one_message_per_step(self):
        automaton = make_rs_automaton()
        state = automaton.initial_state(0, 3)
        outcome = automaton.on_step(ctx(automaton, 0, state))
        assert outcome.send_to == 1
        round_tag, payload = outcome.payload
        assert round_tag == 1
        assert payload == frozenset({0})
        assert len(outcome.state.outbox) == 1

    def test_received_messages_filed_by_round(self):
        automaton = make_rs_automaton()
        state = automaton.initial_state(0, 3)
        outcome = automaton.on_step(
            ctx(automaton, 0, state,
                received=[(1, (2, frozenset({9})))])
        )
        assert outcome.state.inbox[2][1] == frozenset({9})

    def test_transition_fires_exactly_at_deadline(self):
        automaton = make_rs_automaton()
        deadline = automaton.deadlines[0]
        state = automaton.initial_state(0, 3)
        for step in range(1, deadline + 1):
            outcome = automaton.on_step(
                ctx(automaton, 0, state, local_step=step)
            )
            state = outcome.state
        assert state.round == 2  # advanced exactly at the deadline step
        assert state.delivered_log[0][0] == 1

    def test_self_payload_counts_as_delivered(self):
        automaton = make_rs_automaton()
        deadline = automaton.deadlines[0]
        state = automaton.initial_state(0, 3)
        for step in range(1, deadline + 1):
            state = automaton.on_step(
                ctx(automaton, 0, state, local_step=step)
            ).state
        _, senders = state.delivered_log[0]
        assert 0 in senders  # own broadcast received by itself

    def test_finished_after_last_round(self):
        automaton = make_rs_automaton(rounds=1)
        deadline = automaton.deadlines[0]
        state = automaton.initial_state(0, 3)
        for step in range(1, deadline + 1):
            state = automaton.on_step(
                ctx(automaton, 0, state, local_step=step)
            ).state
        assert state.finished
        # Further steps are inert.
        outcome = automaton.on_step(
            ctx(automaton, 0, state, local_step=deadline + 1)
        )
        assert outcome.send_to is None

    def test_values_length_checked(self):
        with pytest.raises(ConfigurationError):
            RoundOnSSAutomaton(FloodSet(), 3, 1, [0, 1], 1, 1, 2)

    def test_deadlines_monotone(self):
        deadlines = round_deadlines(4, 2, 3, 5)
        assert all(b > a for a, b in zip(deadlines, deadlines[1:]))


class TestRoundOnSPInternals:
    def make_automaton(self, rounds=2):
        return RoundOnSPAutomaton(FloodSet(), 3, 1, [0, 1, 2], rounds)

    def test_round_completion_needs_all_sends_first(self):
        automaton = self.make_automaton()
        state = automaton.initial_state(0, 3)
        # First step sends to p1; outbox still holds p2's copy, so the
        # round cannot complete even with everything heard + suspected.
        outcome = automaton.on_step(
            ctx(automaton, 0, state,
                received=[(1, (1, frozenset({1}))), (2, (1, frozenset({2})))])
        )
        assert outcome.state.round == 1
        assert outcome.send_to == 1

    def test_completes_on_heard_from_everyone(self):
        automaton = self.make_automaton()
        state = automaton.initial_state(0, 3)
        state = automaton.on_step(ctx(automaton, 0, state)).state
        state = automaton.on_step(
            ctx(automaton, 0, state,
                received=[(1, (1, frozenset({1}))), (2, (1, frozenset({2})))])
        ).state
        assert state.round == 2

    def test_completes_on_suspicion_of_silent_peer(self):
        automaton = self.make_automaton()
        state = automaton.initial_state(0, 3)
        state = automaton.on_step(ctx(automaton, 0, state)).state
        state = automaton.on_step(
            ctx(automaton, 0, state,
                received=[(1, (1, frozenset({1})))],
                suspects=frozenset({2}))
        ).state
        assert state.round == 2
        # p2's message never arrived: the round was closed without it —
        # a pending message from the abstraction's point of view.
        assert 2 not in state.delivered_log[0][1]

    def test_waits_without_message_or_suspicion(self):
        automaton = self.make_automaton()
        state = automaton.initial_state(0, 3)
        state = automaton.on_step(ctx(automaton, 0, state)).state
        state = automaton.on_step(
            ctx(automaton, 0, state, suspects=frozenset())
        ).state
        assert state.round == 1  # still waiting on p1 and p2

    def test_late_message_of_closed_round_is_ignored(self):
        automaton = self.make_automaton()
        state = automaton.initial_state(0, 3)
        state = automaton.on_step(ctx(automaton, 0, state)).state
        state = automaton.on_step(
            ctx(automaton, 0, state,
                received=[(1, (1, frozenset({1})))],
                suspects=frozenset({2}))
        ).state
        assert state.round == 2
        # p2's round-1 message arrives late: filed, but round 1's
        # delivered_log stays as recorded at completion time.
        state = automaton.on_step(
            ctx(automaton, 0, state,
                received=[(2, (1, frozenset({2})))],
                suspects=frozenset({2}))
        ).state
        assert 2 not in state.delivered_log[0][1]


# -- trace parity pins --------------------------------------------------------

_SP_PARAMS = (
    ("delivery_prob", 0.15),
    ("max_age", 80),
    ("max_detection_delay", 2),
)

#: name -> (engine, crash times, seed, rounds, params, injected bug).
PIN_CELLS = {
    "ss-crash-free": ("rs_on_ss", {}, 3, 3, (), None),
    "ss-mid-broadcast": ("rs_on_ss", {0: 2}, 3, 3, (), None),
    "ss-drop-received": ("rs_on_ss", {0: 2}, 3, 3, (), "ss-drop-received"),
    "sp-crash-free": ("rws_on_sp", {}, 11, 2, _SP_PARAMS, None),
    "sp-pending": ("rws_on_sp", {0: 5}, 11, 2, _SP_PARAMS, None),
}

#: sha256 over each cell's JSONL trace followed by its serialized
#: induced scenario, taken at the commit before the two emulations were
#: merged into ``repro.emulation.synchronizer``.
PARENT_TRACE_DIGESTS = {
    "ss-crash-free": (
        "dc645e33d07a024310c2b44a438c36cd1c3a0677ee8666eac4fa41a2cde34d6f"
    ),
    "ss-mid-broadcast": (
        "c8fb537d19913e7aabe1968ddb6b9eb895b9d2a61f04695d8601e408535fdc77"
    ),
    "ss-drop-received": (
        "461c58d0eb0a1db79d88a0be48c9aea8bd058326720977c2536378bb2bd7fec9"
    ),
    "sp-crash-free": (
        "bd8abf51b714ac0520bf6451d6e7cd468d6f849a62326b0edb87dfe8c0ab6aaf"
    ),
    "sp-pending": (
        "cf0a062c6839cfda5951ac3b652dda4c6a0067f8f507d9f50fd465db6fa4d953"
    ),
}


def _pin_result(name, monkeypatch):
    engine, crashes, seed, rounds, params, bug = PIN_CELLS[name]
    if bug is None:
        monkeypatch.delenv(INJECT_ENV, raising=False)
    else:
        monkeypatch.setenv(INJECT_ENV, bug)
    return execute_request(
        ExecutionRequest(
            name=f"pin-{name}",
            engine=engine,
            algorithm="floodset",
            values=(0, 1, 2),
            t=1,
            pattern=FailurePattern.with_crashes(3, crashes),
            max_rounds=rounds,
            seed=seed,
            params=params,
            check_consensus=False,
        )
    )


def _trace_digest(result):
    digest = hashlib.sha256()
    for event in result.events:
        digest.update(event.to_json().encode() + b"\n")
    digest.update(json.dumps(result.extra, sort_keys=True).encode())
    return digest.hexdigest()


class TestTraceParityPins:
    @pytest.mark.parametrize("name", sorted(PIN_CELLS))
    def test_trace_is_byte_identical_to_the_parent(self, name, monkeypatch):
        result = _pin_result(name, monkeypatch)
        assert _trace_digest(result) == PARENT_TRACE_DIGESTS[name]

    def test_the_pins_cover_what_they_claim(self, monkeypatch):
        results = {name: _pin_result(name, monkeypatch) for name in PIN_CELLS}
        induced = {
            name: result.extra["induced_scenario"]
            for name, result in results.items()
        }
        (crash,) = induced["ss-mid-broadcast"]["crashes"]
        assert crash["sent_to"] == [1]  # a strict subset of the peers
        assert induced["ss-mid-broadcast"]["pending"] == []
        assert induced["ss-drop-received"]["pending"]  # the mutation fired
        assert len(induced["sp-pending"]["pending"]) >= 1
        assert any(
            event.kind == "msg_withheld"
            for event in results["sp-pending"].events
        )
