"""Tests for the trace oracle: the streaming invariant checkers."""

from __future__ import annotations

import itertools

import pytest

from repro.consensus import A1, FloodSet, FOptFloodSet
from repro.obs import (
    ConsensusChecker,
    DetectorAccuracyChecker,
    DetectorCompletenessChecker,
    Event,
    EventLog,
    OrderingChecker,
    RoundSynchronyChecker,
    WeakRoundSynchronyChecker,
    check_events,
    default_checkers,
    events_from_jsonl_lines,
    logical_clock,
    run_checkers,
)
from repro.rounds import FailureScenario, RoundModel, run_rs, run_rws
from repro.rounds.scenario import CrashEvent
from repro.runtime.harness import execute_request
from repro.runtime.request import ExecutionRequest
from repro.runtime.sweep import check_cell
from repro.workloads import (
    adversarial_split,
    floodset_rws_violation,
    initially_dead_t,
)


_NEVER_DECIDES = "termination violated: p{pid} never decides and does not crash"


def _ev(kind: str, **fields) -> Event:
    """Shorthand event constructor with an auto timestamp."""
    data = {"kind": kind, "ts": fields.pop("ts", 0.0), **fields}
    return Event.from_dict(data)


def _trace(*events: Event) -> list[Event]:
    """Stamp events with increasing timestamps."""
    counter = itertools.count(1)
    return [
        Event.from_dict({**e.to_dict(), "ts": float(next(counter))})
        for e in events
    ]


class TestDetectorCheckers:
    def test_premature_suspicion_flagged_with_index(self):
        events = _trace(
            _ev("round_start", round=1, value=[0, 1, 2]),
            _ev("suspect", pid=1, peer=2),
            _ev("crash", pid=2, round=1),
        )
        report = run_checkers(events, [DetectorAccuracyChecker()])
        assert not report.ok
        (violation,) = report.errors
        assert violation.index == 1
        assert violation.checker == "detector.accuracy"
        assert "before any crash" in violation.message

    def test_suspicion_after_crash_is_accurate(self):
        events = _trace(
            _ev("crash", pid=2, round=1),
            _ev("suspect", pid=1, peer=2),
        )
        assert run_checkers(events, [DetectorAccuracyChecker()]).ok

    def test_completeness_miss_is_a_warning(self):
        events = _trace(
            _ev("crash", pid=2, time=3),
            _ev("suspect", pid=0, peer=2),
            _ev("decide", pid=0, value=1),
            _ev("decide", pid=1, value=1),
        )
        report = run_checkers(events, [DetectorCompletenessChecker()])
        assert report.ok  # warnings only
        (warning,) = report.warnings
        assert "p1 never suspects" in warning.message

    def test_completeness_vacuous_without_detector(self):
        events = _trace(
            _ev("crash", pid=0, round=1),
            _ev("decide", pid=1, value=1),
        )
        report = run_checkers(events, [DetectorCompletenessChecker()])
        assert not report.violations


class TestSynchronyCheckers:
    def test_rs_forbids_withholding_from_live_sender(self):
        events = _trace(
            _ev("round_start", round=1, value=[0, 1, 2]),
            _ev("msg_sent", peer=0, pid=1, round=1),
            _ev("msg_withheld", peer=0, pid=1, round=1),
        )
        report = run_checkers(events, [RoundSynchronyChecker()])
        (violation,) = report.errors
        assert violation.index == 2
        assert "round synchrony violated" in violation.message

    def test_rs_allows_withholding_from_previously_crashed_sender(self):
        events = _trace(
            _ev("crash", pid=0, round=1),
            _ev("msg_withheld", peer=0, pid=1, round=2),
        )
        assert run_checkers(events, [RoundSynchronyChecker()]).ok

    def test_rws_requires_crash_by_next_round(self):
        events = _trace(
            _ev("msg_withheld", peer=0, pid=1, round=1),
            _ev("crash", pid=0, round=3),  # too late: bound is round 2
        )
        report = run_checkers(events, [WeakRoundSynchronyChecker()])
        (violation,) = report.errors
        assert violation.index == 0
        assert "weak round synchrony violated" in violation.message

    def test_rws_satisfied_by_crash_within_bound(self):
        events = _trace(
            _ev("msg_withheld", peer=0, pid=1, round=1),
            _ev("crash", pid=0, round=2),
        )
        assert run_checkers(events, [WeakRoundSynchronyChecker()]).ok

    def test_rws_exempts_recipients_that_died_in_the_round(self):
        events = _trace(
            _ev("msg_withheld", peer=0, pid=1, round=1),
            _ev("crash", pid=1, round=1),  # the *recipient* died
        )
        assert run_checkers(events, [WeakRoundSynchronyChecker()]).ok

    def test_rws_unsettled_obligation_is_a_warning(self):
        """A run that quiesces before round k+2 cannot settle the
        crash-by-round-k+1 obligation — warning, not error."""
        events = _trace(
            _ev("round_start", round=1, value=[0, 1, 2]),
            _ev("msg_withheld", peer=0, pid=1, round=1),
            _ev("decide", pid=1, round=1, value=0),
            _ev("halt", pid=1, round=1),
        )
        report = run_checkers(events, [WeakRoundSynchronyChecker()])
        assert report.ok
        (warning,) = report.warnings
        assert "unsettled" in warning.message

    def test_rws_missing_crash_is_an_error_once_round_over(self):
        """Round k+1 provably over (a round-k+2 event exists) and the
        sender never crashed: a hard violation."""
        events = _trace(
            _ev("round_start", round=1, value=[0, 1, 2]),
            _ev("msg_withheld", peer=0, pid=1, round=1),
            _ev("round_start", round=2, value=[0, 1, 2]),
            _ev("round_start", round=3, value=[0, 1, 2]),
        )
        report = run_checkers(events, [WeakRoundSynchronyChecker()])
        (violation,) = report.errors
        assert violation.index == 1

    def test_rws_discharged_by_step_model_crash(self):
        events = _trace(
            _ev("crash", pid=0, time=17),
            _ev("msg_withheld", peer=0, pid=1, round=1),
        )
        assert run_checkers(events, [WeakRoundSynchronyChecker()]).ok


class TestConsensusChecker:
    def test_agreement_violation_carries_both_parties(self):
        events = _trace(
            _ev("decide", pid=1, round=2, value=0),
            _ev("decide", pid=2, round=2, value=1),
        )
        report = run_checkers(events, [ConsensusChecker()])
        messages = [v.message for v in report.errors]
        assert any("agreement violated" in m for m in messages)
        assert any("uniform agreement" in m for m in messages)

    def test_uniform_agreement_sees_crashed_deciders(self):
        # the Section 5.3 move: decide, then crash
        events = _trace(
            _ev("decide", pid=0, round=1, value=0),
            _ev("crash", pid=0, round=2),
            _ev("decide", pid=1, round=2, value=1),
        )
        report = run_checkers(events, [ConsensusChecker()])
        assert len(report.errors) == 1  # uniform only: p0 crashed
        assert "uniform agreement" in report.errors[0].message

    def test_validity_needs_initial_values(self):
        events = _trace(_ev("decide", pid=0, round=1, value=7))
        assert run_checkers(events, [ConsensusChecker()]).ok
        report = run_checkers(events, [ConsensusChecker([0, 1, 1])])
        # The inputs also name p1 and p2, whose termination now fails.
        (violation,) = [v for v in report.errors if v.clause == "validity"]
        assert "validity violated" in violation.message

    def test_double_decide_flagged(self):
        events = _trace(
            _ev("decide", pid=0, round=1, value=1),
            _ev("decide", pid=0, round=2, value=1),
        )
        report = run_checkers(events, [ConsensusChecker()])
        assert any("decides twice" in v.message for v in report.errors)

    def test_termination_needs_initial_values(self):
        # No decide at all: every process the inputs name that does not
        # crash fails termination; without inputs (a detector or SDD
        # trace under a bare ``repro check --jsonl``) nothing does.
        events = _trace(
            _ev("round_start", round=1, value=[0, 1, 2]),
            _ev("crash", pid=2, round=1),
        )
        assert run_checkers(events, [ConsensusChecker()]).ok
        report = run_checkers(events, [ConsensusChecker([0, 1, 1])])
        assert [(v.index, v.clause, v.message) for v in report.errors] == [
            (-1, "termination", _NEVER_DECIDES.format(pid=pid))
            for pid in (0, 1)
        ]


class TestJudgedCellVerdicts:
    """``check_cell`` gives a judged round cell's inputs to the oracle."""

    def _request(self, **fields):
        defaults = dict(
            name="cut",
            engine="rounds",
            algorithm="floodset",
            values=(0, 1, 1),
            t=1,
            model="RS",
            scenario=FailureScenario.failure_free(3),
            max_rounds=1,
        )
        return ExecutionRequest(**{**defaults, **fields})

    def test_a_judged_run_with_no_decide_fails_termination(self):
        request = self._request()
        result = execute_request(request)
        assert not [e for e in result.events if e.kind == "decide"]
        verdict = check_cell(request, result)
        assert not verdict.ok
        assert [
            v.message for v in verdict.report.errors if v.clause == "termination"
        ] == [_NEVER_DECIDES.format(pid=pid) for pid in (0, 1, 2)]

    def test_an_undecided_process_is_no_documented_disagreement(self):
        # c-opt decides at round 1 on n identical values: p1 sees them,
        # p2 misses the crashed p0's and stays undecided.  The run
        # agrees, so the disagreement the cell documents is absent.
        request = self._request(
            algorithm="c-opt",
            values=(1, 1, 1),
            scenario=FailureScenario(
                n=3,
                crashes=(CrashEvent(pid=0, round=1, sent_to=frozenset({1})),),
            ),
            expect_disagreement=True,
        )
        result = execute_request(request)
        assert result.decisions == {1: (1, 1)}
        verdict = check_cell(request, result)
        assert [v.clause for v in verdict.report.errors] == ["termination"]
        assert verdict.consensus_violations == 0  # disagreements only
        assert not verdict.ok
        assert verdict.problems() == ["expected disagreement did not appear"]


class TestOrderingChecker:
    def test_round_gap_flagged(self):
        events = _trace(
            _ev("round_start", round=1, value=[0, 1]),
            _ev("round_start", round=3, value=[0, 1]),
        )
        report = run_checkers(events, [OrderingChecker()])
        assert any("increase by exactly 1" in v.message for v in report.errors)

    def test_first_round_must_be_one(self):
        events = _trace(_ev("round_start", round=2, value=[0, 1]))
        report = run_checkers(events, [OrderingChecker()])
        assert any("expected 1" in v.message for v in report.errors)

    def test_time_must_be_monotone(self):
        events = _trace(
            _ev("msg_delivered", pid=0, peer=1, time=5),
            _ev("msg_delivered", pid=0, peer=1, time=3),
        )
        report = run_checkers(events, [OrderingChecker()])
        assert any("monotone" in v.message for v in report.errors)

    def test_no_activity_after_halt(self):
        events = _trace(
            _ev("round_start", round=1, value=[0, 1]),
            _ev("halt", pid=0, round=1),
            _ev("decide", pid=0, round=1, value=1),
        )
        report = run_checkers(events, [OrderingChecker()])
        assert any("after its halt" in v.message for v in report.errors)

    def test_alive_list_must_match_crash_history(self):
        events = _trace(
            _ev("round_start", round=1, value=[0, 1, 2]),
            _ev("crash", pid=0, round=1),
            _ev("round_start", round=2, value=[0, 1, 2]),  # p0 still listed
        )
        report = run_checkers(events, [OrderingChecker()])
        assert any("crash history" in v.message for v in report.errors)

    def test_sender_activity_after_round_crash(self):
        events = _trace(
            _ev("crash", pid=0, round=1),
            _ev("msg_sent", peer=0, pid=1, round=2),
        )
        report = run_checkers(events, [OrderingChecker()])
        assert any(
            "message from p0" in v.message and "crash in round 1" in v.message
            for v in report.errors
        )

    def test_double_crash_flagged(self):
        events = _trace(
            _ev("crash", pid=0, round=1),
            _ev("crash", pid=0, round=2),
        )
        report = run_checkers(events, [OrderingChecker()])
        assert any("crashes twice" in v.message for v in report.errors)


class TestDefaultSuite:
    def test_model_selects_synchrony_checker(self):
        names_rs = [c.name for c in default_checkers(model="RS")]
        names_rws = [c.name for c in default_checkers(model=RoundModel.RWS)]
        names_none = [c.name for c in default_checkers()]
        assert "synchrony.rs" in names_rs
        assert "synchrony.rws" in names_rws
        assert "synchrony.rws" in names_none  # sound for both models

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            default_checkers(model="RSX")

    def test_clean_rs_run_passes_everything(self):
        log = EventLog(clock=logical_clock())
        run_rs(
            FOptFloodSet(),
            adversarial_split(3),
            initially_dead_t(3, 1),
            t=1,
            max_rounds=4,
            observer=log,
        )
        report = check_events(
            log.events, model="RS", initial_values=adversarial_split(3)
        )
        assert report.ok
        assert not report.warnings

    def test_documented_rws_violation_is_consensus_only(self):
        log = EventLog(clock=logical_clock())
        run_rws(
            FloodSet(),
            adversarial_split(3),
            floodset_rws_violation(3),
            t=1,
            max_rounds=4,
            observer=log,
        )
        report = check_events(
            log.events, model="RWS", initial_values=adversarial_split(3)
        )
        assert not report.ok
        assert {v.checker for v in report.errors} == {"consensus"}
        # violations point at the decide events
        for violation in report.errors:
            assert log.events[violation.index].kind == "decide"


class TestSeededViolationRoundTrip:
    """The acceptance path: export, hand-edit, re-check via JSONL."""

    def test_seeded_premature_suspect_flagged_at_its_index(self):
        log = EventLog(clock=logical_clock())
        run_rs(
            FOptFloodSet(),
            adversarial_split(3),
            initially_dead_t(3, 1),
            t=1,
            max_rounds=4,
            observer=log,
        )
        lines = list(log.jsonl_lines())
        seeded = (
            lines[:3]
            + ['{"kind": "suspect", "pid": 1, "peer": 0, "round": 1, "ts": 3.5}']
            + lines[3:]
        )
        events = events_from_jsonl_lines(seeded)
        report = check_events(events, model="RS")
        assert not report.ok
        accuracy = report.by_checker("detector.accuracy")
        assert [v.index for v in accuracy] == [3]

    def test_clean_export_reparses_clean(self):
        log = EventLog(clock=logical_clock())
        run_rws(
            A1(),
            adversarial_split(3),
            floodset_rws_violation(3),
            t=1,
            max_rounds=4,
            observer=log,
        )
        events = events_from_jsonl_lines(log.jsonl_lines())
        report = check_events(events, model="RWS")
        model_errors = [
            v for v in report.errors if v.checker != "consensus"
        ]
        assert model_errors == []
