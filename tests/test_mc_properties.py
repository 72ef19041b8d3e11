"""Verdicts: property judgements, serialization, witness replay."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.fuzz.campaign import REPRO_KIND, load_counterexample
from repro.mc import McTask, check
from repro.mc.properties import (
    correct_pids,
    default_lambda_bound,
    evaluate_property,
    parse_bound,
)
from repro.mc.verdict import Verdict
from repro.runtime.harness import execute_request


def _check(property_name, algorithm, **kwargs):
    defaults = dict(
        property_name=property_name,
        algorithm=algorithm,
        n=3,
        t=1,
        model="RS",
        horizon=3,
    )
    defaults.update(kwargs)
    return check(McTask(**defaults))


class TestVerdicts:
    def test_floodset_rs_agreement_holds_exhaustively(self):
        verdict = _check("agreement", "floodset").verdict
        assert verdict.holds
        assert verdict.label == "HOLDS(exhaustive)"
        assert verdict.stats["cells"] == verdict.stats["leaves"]
        assert not verdict.witnesses

    def test_floodset_rws_agreement_is_refuted(self):
        # Figure 2's motivation (E5): plain FloodSet run under RWS
        # (crash-and-withhold) violates agreement within the bounded
        # frontier, and the checker produces a shrunk witness.
        outcome = _check("agreement", "floodset", model="RWS")
        verdict = outcome.verdict
        assert not verdict.holds
        assert verdict.label == "REFUTED"
        assert verdict.witnesses
        assert outcome.witness_requests
        first = verdict.witnesses[0]
        assert first["kind"] == REPRO_KIND
        assert first["property"] == "agreement"
        assert first["shrink_attempts"] > 0

    def test_floodset_ws_rws_agreement_holds(self):
        verdict = _check("agreement", "floodset-ws", model="RWS").verdict
        assert verdict.holds

    def test_uniform_agreement_and_validity_hold_for_floodset_rs(self):
        for prop in ("uniform-agreement", "validity"):
            assert _check(prop, "floodset").verdict.holds, prop

    def test_indistinguishability_holds(self):
        verdict = _check("indistinguishability", "floodset").verdict
        assert verdict.holds

    @pytest.mark.parametrize(
        "algorithm, model", [("a1", "RS"), ("floodset-ws", "RWS")]
    )
    def test_indistinguishability_compares_something(self, algorithm, model):
        # Groups holding two runs or more are the only ones the property
        # compares decisions in.  (FloodSet's reduced frontier has none:
        # its decision round fixes the whole causal past.)
        verdict = _check("indistinguishability", algorithm, model=model).verdict
        assert verdict.label == "HOLDS(exhaustive)"
        assert verdict.details["shared"] > 0
        assert verdict.details["groups"] >= verdict.details["shared"]

    def test_indistinguishability_refutes_a_planted_flip(self):
        # One cell's process gets the other decision, in its decide event
        # and in the decisions alike.  A view that contains the decision
        # itself cannot see the flip; the view up to the decision does.
        outcome = _check("indistinguishability", "a1")
        pairs = list(zip(outcome.sweep.requests, outcome.sweep.results))
        request, result = pairs[0]
        pid = next(p for p in correct_pids(request) if p in result.decisions)
        decided_round, value = result.decisions[pid]
        flipped = 1 - value
        events = [
            replace(event, value=flipped)
            if event.kind == "decide" and event.pid == pid
            else event
            for event in result.events
        ]
        decisions = {**result.decisions, pid: (decided_round, flipped)}
        pairs[0] = (request, replace(result, events=events, decisions=decisions))
        judged = evaluate_property("indistinguishability", pairs, t=1, horizon=3)
        assert not judged.holds, "REFUTED expected"
        assert any(
            f"p{pid} has identical local views" in problem
            for violation in judged.violations
            for problem in violation.problems
        )

    def test_lambda_a1_is_exactly_one(self):
        verdict = _check("lambda", "a1").verdict
        assert verdict.holds
        assert verdict.details["lambda"] == 1
        assert verdict.details["bound"] == "==1"

    def test_lambda_floodset_is_t_plus_one(self):
        verdict = _check("lambda", "floodset").verdict
        assert verdict.holds
        assert verdict.details["lambda"] == 2

    def test_lambda_rws_lower_bound(self):
        verdict = _check(
            "lambda", "floodset-ws", model="RWS", horizon=4
        ).verdict
        assert verdict.holds
        assert verdict.details["bound"] == ">=2"
        assert verdict.details["lambda"] >= 2

    def test_grid_scope_is_not_exhaustive(self):
        verdict = _check("agreement", "floodset", engine="rs_on_ss").verdict
        assert verdict.holds
        assert verdict.label == "HOLDS(grid)"

    def test_planted_bug_is_refuted_on_the_grid(self, monkeypatch):
        monkeypatch.setenv("REPRO_INJECT_BUG", "ss-drop-received")
        outcome = _check(
            "agreement", "floodset", engine="rs_on_ss", shrink_witness=False
        )
        assert not outcome.verdict.holds
        assert outcome.verdict.to_dict()["injected_bug"] == "ss-drop-received"
        assert outcome.verdict.witnesses


class TestWitnessReplay:
    def test_witness_replays_byte_identically(self, tmp_path):
        outcome = _check("agreement", "floodset", model="RWS")
        request = outcome.witness_requests[0]
        first = execute_request(request)
        second = execute_request(request)
        assert first.to_dict() == second.to_dict()
        # The replay oracles themselves must flag the run: the witness
        # carries check_consensus so `repro replay` fails loudly.
        assert request.check_consensus

    def test_witness_document_loads_via_fuzz_pipeline(self, tmp_path):
        outcome = _check("agreement", "floodset", model="RWS")
        path = tmp_path / "witness.json"
        path.write_text(
            json.dumps(outcome.verdict.witnesses[0], default=repr)
        )
        request, document = load_counterexample(str(path))
        assert request.to_dict() == outcome.witness_requests[0].to_dict()
        assert document["property"] == "agreement"


class TestSerialization:
    def test_verdict_round_trips(self):
        verdict = _check("agreement", "floodset", model="RWS").verdict
        data = json.loads(verdict.to_json())
        assert data["kind"] == "mc-verdict"
        restored = Verdict.from_dict(data)
        assert restored.to_dict() == verdict.to_dict()
        for key in ("states_visited", "revisit_pruned", "dominance_pruned"):
            assert key in restored.stats

    def test_stats_are_deterministic_across_runs(self):
        first = _check("agreement", "floodset").verdict
        second = _check("agreement", "floodset").verdict
        assert first.to_dict() == second.to_dict()

    def test_from_dict_rejects_other_kinds(self):
        with pytest.raises(ConfigurationError):
            Verdict.from_dict({"kind": "repro-counterexample"})


class TestTaskValidation:
    def test_unknown_property_is_rejected(self):
        with pytest.raises(ConfigurationError):
            McTask(property_name="liveness", algorithm="floodset").validate()

    def test_a1_requires_t_equals_one(self):
        with pytest.raises(ConfigurationError):
            McTask(
                property_name="agreement", algorithm="a1", t=2
            ).validate()

    def test_parse_bound(self):
        assert parse_bound("==1") == ("==", 1)
        assert parse_bound(">=2") == (">=", 2)
        assert parse_bound("<=3") == ("<=", 3)
        with pytest.raises(ConfigurationError):
            parse_bound("~4")

    def test_default_bounds_follow_the_paper(self):
        assert default_lambda_bound("a1", "RS", 1) == "==1"
        assert default_lambda_bound("floodset", "RWS", 1) == ">=2"
        assert default_lambda_bound("floodset", "RS", 2) == "==3"
