"""Tests for deterministic replay: trace -> scenario -> identical trace."""

from __future__ import annotations

import pytest

from repro.consensus import A1, FloodSet, FOptFloodSet
from repro.obs import (
    EventLog,
    events_from_jsonl_lines,
    infer_model,
    reconstruct_scenario,
    replay_events,
)
from repro.rounds import RoundModel, run_rs, run_rws
from repro.workloads import (
    a1_rws_disagreement,
    adversarial_split,
    floodset_rws_violation,
    initially_dead_t,
)


def _record(algorithm, values, scenario, model, **kwargs):
    log = EventLog()
    runner = run_rws if model is RoundModel.RWS else run_rs
    runner(
        algorithm, values, scenario, observer=log, **{"t": 1, "max_rounds": 4, **kwargs}
    )
    return log


class TestScenarioReconstruction:
    def test_rws_scenario_round_trips_exactly(self):
        scenario = floodset_rws_violation(3)
        log = _record(
            FloodSet(), adversarial_split(3), scenario, RoundModel.RWS
        )
        rebuilt = reconstruct_scenario(log.events)
        assert rebuilt == scenario

    def test_a1_scenario_round_trips_exactly(self):
        scenario = a1_rws_disagreement(3)
        log = _record(A1(), adversarial_split(3), scenario, RoundModel.RWS)
        assert reconstruct_scenario(log.events) == scenario

    def test_initially_dead_scenario_round_trips(self):
        scenario = initially_dead_t(3, 1)
        log = _record(
            FOptFloodSet(), adversarial_split(3), scenario, RoundModel.RS
        )
        rebuilt = reconstruct_scenario(log.events)
        assert rebuilt.n == scenario.n
        assert rebuilt.crashes == scenario.crashes
        assert rebuilt.pending == scenario.pending

    def test_step_trace_rejected(self):
        log = EventLog()
        log.crash(0, time=3)
        with pytest.raises(ValueError, match="not a round-model trace"):
            reconstruct_scenario(log.events)


class TestModelInference:
    def test_withheld_means_rws(self):
        log = _record(
            FloodSet(),
            adversarial_split(3),
            floodset_rws_violation(3),
            RoundModel.RWS,
        )
        assert infer_model(log.events) == "RWS"

    def test_no_withheld_means_rs(self):
        log = _record(
            FOptFloodSet(),
            adversarial_split(3),
            initially_dead_t(3, 1),
            RoundModel.RS,
        )
        assert infer_model(log.events) == "RS"


class TestByteForByteReplay:
    def test_rs_trace_replays_byte_for_byte(self):
        values = adversarial_split(3)
        log = _record(
            FOptFloodSet(), values, initially_dead_t(3, 1), RoundModel.RS
        )
        report = replay_events(FOptFloodSet(), values, log.events, t=1)
        assert report.model == "RS"
        assert report.exact
        assert report.original_lines == report.replayed_lines

    def test_rws_trace_replays_byte_for_byte(self):
        values = adversarial_split(3)
        log = _record(
            FloodSet(), values, floodset_rws_violation(3), RoundModel.RWS
        )
        report = replay_events(FloodSet(), values, log.events, t=1)
        assert report.model == "RWS"
        assert report.exact
        assert "byte-for-byte" in report.describe()

    def test_replay_from_jsonl_round_trip(self):
        """The full pipeline: record -> serialize -> parse -> replay."""
        values = adversarial_split(3)
        log = _record(A1(), values, a1_rws_disagreement(3), RoundModel.RWS)
        events = events_from_jsonl_lines(log.jsonl_lines())
        report = replay_events(A1(), values, events, t=1)
        assert report.exact

    def test_replay_flags_divergence_with_index(self):
        """A tampered trace replays to a different stream; the report
        points at the first diverging event."""
        values = adversarial_split(3)
        log = _record(
            FloodSet(), values, floodset_rws_violation(3), RoundModel.RWS
        )
        tampered = list(log.events)
        # drop one withheld event: the reconstructed scenario loses one
        # pending message, so the replay delivers where the original
        # withheld
        index = next(
            i for i, e in enumerate(tampered) if e.kind == "msg_withheld"
        )
        del tampered[index]
        report = replay_events(FloodSet(), values, tampered, t=1)
        assert not report.matches
        assert report.first_mismatch is not None
        assert "divergence" in report.describe()

    def test_replay_with_different_values_diverges(self):
        values = adversarial_split(3)
        log = _record(
            FloodSet(), values, floodset_rws_violation(3), RoundModel.RWS
        )
        report = replay_events(FloodSet(), [1, 1, 1], log.events, t=1)
        # same structure up to payloads; decide values differ
        assert not report.exact
