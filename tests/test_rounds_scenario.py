"""Tests for failure scenarios and their admissibility validation."""

from __future__ import annotations

import pytest

from repro.errors import ScenarioError
from repro.rounds import (
    CrashEvent,
    FailureScenario,
    PendingMessage,
    validate_scenario,
)


def scenario(n=3, crashes=(), pending=()):
    return FailureScenario(
        n=n, crashes=tuple(crashes), pending=frozenset(pending)
    )


class TestCrashEvent:
    def test_rejects_round_zero(self):
        with pytest.raises(ScenarioError):
            CrashEvent(pid=0, round=0)

    def test_rejects_self_in_sent_to(self):
        with pytest.raises(ScenarioError):
            CrashEvent(pid=0, round=1, sent_to=frozenset({0}))


class TestPendingMessage:
    def test_rejects_self_message(self):
        with pytest.raises(ScenarioError):
            PendingMessage(1, 1, 1)

    def test_rejects_round_zero(self):
        with pytest.raises(ScenarioError):
            PendingMessage(0, 1, 0)


class TestScenarioQueries:
    def test_failure_free(self):
        s = FailureScenario.failure_free(3)
        assert s.correct == frozenset({0, 1, 2})
        assert s.num_failures() == 0
        assert s.describe() == "failure-free"

    def test_crash_round_lookup(self):
        s = scenario(crashes=[CrashEvent(pid=1, round=2)])
        assert s.crash_round(1) == 2
        assert s.crash_round(0) is None

    def test_alive_at_start(self):
        s = scenario(crashes=[CrashEvent(pid=1, round=2)])
        assert s.alive_at_start(1, 1)
        assert s.alive_at_start(1, 2)  # crashes *during* round 2
        assert not s.alive_at_start(1, 3)

    def test_alive_at_end_without_transition(self):
        s = scenario(crashes=[CrashEvent(pid=1, round=2)])
        assert s.alive_at_end(1, 1)
        assert not s.alive_at_end(1, 2)

    def test_alive_at_end_with_transition(self):
        event = CrashEvent(
            pid=1, round=2, sent_to=frozenset({0, 2}), applies_transition=True
        )
        s = scenario(crashes=[event])
        assert s.alive_at_end(1, 2)
        assert not s.alive_at_start(1, 3)

    def test_initially_dead(self):
        s = scenario(crashes=[CrashEvent(pid=0, round=1)])
        assert s.initially_dead() == frozenset({0})

    def test_crash_with_partial_send_is_not_initially_dead(self):
        s = scenario(
            crashes=[CrashEvent(pid=0, round=1, sent_to=frozenset({1}))]
        )
        assert s.initially_dead() == frozenset()

    def test_describe_mentions_pending(self):
        s = scenario(
            crashes=[CrashEvent(pid=0, round=1, sent_to=frozenset({1}))],
            pending=[PendingMessage(0, 1, 1)],
        )
        assert "pend(r1:0->1)" in s.describe()


class TestValidation:
    def check(self, s, *, t=1, allow_pending=True):
        return validate_scenario(s, t=t, allow_pending=allow_pending)

    def test_valid_rs_scenario(self):
        s = scenario(
            crashes=[CrashEvent(pid=0, round=1, sent_to=frozenset({1}))]
        )
        assert self.check(s, allow_pending=False) == []

    def test_too_many_crashes(self):
        s = scenario(
            crashes=[CrashEvent(pid=0, round=1), CrashEvent(pid=1, round=1)]
        )
        assert any("exceed" in p for p in self.check(s, t=1))

    def test_duplicate_crash(self):
        s = scenario(
            crashes=[CrashEvent(pid=0, round=1), CrashEvent(pid=0, round=2)]
        )
        assert any("twice" in p for p in self.check(s, t=2))

    def test_everyone_crashing_rejected(self):
        s = scenario(
            n=2,
            crashes=[CrashEvent(pid=0, round=1), CrashEvent(pid=1, round=1)],
        )
        assert any("correct" in p for p in self.check(s, t=2))

    def test_transition_requires_complete_send(self):
        event = CrashEvent(
            pid=0, round=1, sent_to=frozenset({1}), applies_transition=True
        )
        assert any(
            "without having" in p
            for p in self.check(scenario(crashes=[event]))
        )

    def test_pending_forbidden_in_rs(self):
        s = scenario(
            crashes=[CrashEvent(pid=0, round=1, sent_to=frozenset({1}))],
            pending=[PendingMessage(0, 1, 1)],
        )
        assert any("RS" in p for p in self.check(s, allow_pending=False))

    def test_pending_never_sent_rejected(self):
        # p0 crashes in round 1 reaching nobody — its round-1 message to
        # p1 was never sent, so it cannot be pending.
        s = scenario(
            crashes=[CrashEvent(pid=0, round=1)],
            pending=[PendingMessage(0, 1, 1)],
        )
        assert any("never sent" in p or "sent nothing" in p
                   for p in self.check(s))

    def test_pending_from_later_crash_round_rejected(self):
        # p0 crashes in round 1; a round-2 message from it cannot exist.
        s = scenario(
            crashes=[CrashEvent(pid=0, round=1)],
            pending=[PendingMessage(0, 1, 2)],
        )
        assert self.check(s)

    def test_weak_round_synchrony_enforced(self):
        # Correct sender cannot have a pending message to a live process.
        s = scenario(pending=[PendingMessage(0, 1, 1)])
        assert any("weak round synchrony" in p for p in self.check(s))

    def test_sender_crashing_too_late_rejected(self):
        s = scenario(
            crashes=[CrashEvent(pid=0, round=3, sent_to=frozenset())],
            pending=[PendingMessage(0, 1, 1)],
        )
        assert any("weak round synchrony" in p for p in self.check(s))

    def test_paper_scenario_accepted(self):
        """The A1 disagreement run: send all (pending), decide, crash."""
        s = scenario(
            crashes=[
                CrashEvent(
                    pid=0,
                    round=1,
                    sent_to=frozenset({1, 2}),
                    applies_transition=True,
                )
            ],
            pending=[PendingMessage(0, 1, 1), PendingMessage(0, 2, 1)],
        )
        assert self.check(s) == []

    def test_emulation_impossible_transition_rejected(self):
        """A sender with a round-r pending message cannot complete round
        r+1's transition (its recipient's suspicion proves it dead)."""
        s = scenario(
            crashes=[
                CrashEvent(
                    pid=0,
                    round=2,
                    sent_to=frozenset({1, 2}),
                    applies_transition=True,
                )
            ],
            pending=[PendingMessage(0, 1, 1)],
        )
        assert any("emulation-impossible" in p for p in self.check(s))

    def test_partial_send_in_next_round_allowed(self):
        """...but *sending* (without transition) in round r+1 is fine."""
        s = scenario(
            crashes=[CrashEvent(pid=0, round=2, sent_to=frozenset({1}))],
            pending=[PendingMessage(0, 1, 1), PendingMessage(0, 2, 1)],
        )
        assert self.check(s) == []

    def test_horizon_bound(self):
        s = scenario(crashes=[CrashEvent(pid=0, round=9)])
        assert any(
            "beyond" in p
            for p in validate_scenario(s, t=1, allow_pending=False, horizon=3)
        )
