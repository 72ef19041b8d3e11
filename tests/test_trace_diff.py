"""Tests for trace diffing and the Theorem 3.1 indistinguishability demo."""

from __future__ import annotations

from repro.consensus import FloodSet
from repro.obs import (
    EventLog,
    diff_traces,
    first_divergence,
    indistinguishable,
    local_view,
    logical_clock,
    view_divergence,
)
from repro.rounds import run_rws
from repro.sdd import SP_CANDIDATE_FACTORIES, sdd_quadruple_traces
from repro.sdd.spec import RECEIVER, SENDER
from repro.workloads import adversarial_split, floodset_rws_violation


def _rws_trace(values):
    log = EventLog(clock=logical_clock())
    run_rws(
        FloodSet(),
        values,
        floodset_rws_violation(3),
        t=1,
        max_rounds=4,
        observer=log,
    )
    return log.events


class TestFirstDivergence:
    def test_identical_traces_have_no_divergence(self):
        events = _rws_trace(adversarial_split(3))
        assert first_divergence(events, events) is None

    def test_timestamps_ignored_by_default(self):
        a = _rws_trace(adversarial_split(3))
        b = _rws_trace(adversarial_split(3))
        # logical clocks restart, so ts agree here; perturb one to prove
        # the comparison does not look at it
        perturbed = [
            e.__class__.from_dict({**e.to_dict(), "ts": e.ts + 100}) for e in b
        ]
        assert first_divergence(a, perturbed) is None

    def test_prefix_divergence_reports_ended_side(self):
        events = _rws_trace(adversarial_split(3))
        divergence = first_divergence(events, events[:-1])
        assert divergence is not None
        assert divergence.position == len(events) - 1
        assert divergence.event_b is None
        assert divergence.index_b is None
        assert "<ended>" in divergence.describe()


class TestDiffTraces:
    def test_identical(self):
        events = _rws_trace(adversarial_split(3))
        diff = diff_traces(events, events)
        assert diff.identical
        assert diff.describe() == "traces identical"
        assert diff.diverging_processes() == []

    def test_different_inputs_diverge_and_lanes_attribute(self):
        a = _rws_trace(adversarial_split(3))
        b = _rws_trace([1, 1, 1])
        diff = diff_traces(a, b)
        assert not diff.identical
        assert diff.divergence.index_a is not None
        # at least one per-process lane must localise the difference
        assert diff.diverging_processes()
        assert "diverge at position" in diff.describe()


class TestLocalView:
    def test_view_contains_only_observations(self):
        events = _rws_trace(adversarial_split(3))
        view = local_view(events, 1)
        assert view, "p1 observes something"
        assert [j for j, _, _ in view] == sorted(j for j, _, _ in view)
        kinds = {entry[0] for _, _, chain in view for entry in chain}
        assert kinds <= {"msg_sent", "msg_delivered", "suspect", "decide"}
        # crash/halt are not observed; timestamps and step times dropped
        assert all(len(entry) == 5 for _, _, chain in view for entry in chain)
        # without inputs the input slot is empty; with them it is filled
        assert {value for _, value, _ in view} == {None}
        inputs = adversarial_split(3)
        filled = local_view(events, 1, inputs=inputs)
        assert [value for _, value, _ in filled] == [
            inputs[j] for j, _, _ in view
        ]

    def test_view_indices_point_into_original(self):
        # ``upto`` cuts the view at a trace index: the view before p2's
        # decision is a strict prefix-closed part of the full view, and
        # it no longer holds the decision itself.
        events = _rws_trace(adversarial_split(3))
        decided = next(
            index
            for index, event in enumerate(events)
            if event.kind == "decide" and event.pid == 2
        )
        full = dict((j, chain) for j, _, chain in local_view(events, 2))
        before = dict(
            (j, chain) for j, _, chain in local_view(events, 2, upto=decided)
        )
        decide = events[decided]
        assert ("decide", decide.round, 2, None, decide.value) in full[2]
        assert all(entry[0] != "decide" for entry in before[2])
        for j, chain in before.items():
            assert full[j][: len(chain)] == chain

class TestSDDIndistinguishability:
    """The executable Theorem 3.1: the receiver cannot tell the runs of
    each pair apart, hence decides identically — which breaks validity."""

    def test_receiver_views_indistinguishable_within_pairs(self):
        for name, factory in SP_CANDIDATE_FACTORIES.items():
            traces = sdd_quadruple_traces(factory)
            for left, right in (("r0", "r0'"), ("r1", "r1'")):
                assert indistinguishable(
                    traces[left].events, traces[right].events, RECEIVER
                ), f"{name}: receiver distinguishes {left} from {right}"

    def test_sender_views_differ_across_pairs(self):
        """The *sender* trivially distinguishes r0 (it never steps)
        from r0' (it sends): indistinguishability is per-process."""
        traces = sdd_quadruple_traces(SP_CANDIDATE_FACTORIES["suspicion"])
        a = traces["r0"].events
        b = traces["r0'"].events
        # r0's sender is initially dead; r0''s sender sends one message
        sends_a = [e for e in a if e.kind == "msg_sent" and e.peer == SENDER]
        sends_b = [e for e in b if e.kind == "msg_sent" and e.peer == SENDER]
        assert not sends_a and sends_b

    def test_identical_views_force_identical_decisions(self):
        for factory in SP_CANDIDATE_FACTORIES.values():
            traces = sdd_quadruple_traces(factory)
            for left, right in (("r0", "r0'"), ("r1", "r1'")):
                decides_left = [
                    e.value
                    for e in traces[left].events
                    if e.kind == "decide" and e.pid == RECEIVER
                ]
                decides_right = [
                    e.value
                    for e in traces[right].events
                    if e.kind == "decide" and e.pid == RECEIVER
                ]
                assert decides_left == decides_right

    def test_view_divergence_reports_nothing_for_pairs(self):
        traces = sdd_quadruple_traces(SP_CANDIDATE_FACTORIES["patient"])
        assert (
            view_divergence(
                traces["r1"].events, traces["r1'"].events, RECEIVER
            )
            is None
        )
