"""Tests for JSON serialization of failure scenarios."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

import random

from repro.errors import ConfigurationError
from repro.rounds import random_scenario
from repro.serialize import (
    scenario_from_dict,
    scenario_to_dict,
)
from repro.workloads import a1_rws_disagreement, floodset_rws_violation


def _to_json(scenario):
    return json.dumps(scenario_to_dict(scenario), sort_keys=True)


def _from_json(text):
    return scenario_from_dict(json.loads(text))


class TestScenarioRoundTrip:
    @pytest.mark.parametrize(
        "scenario",
        [a1_rws_disagreement(3), floodset_rws_violation(3)],
        ids=["a1", "floodset"],
    )
    def test_named_scenarios_round_trip(self, scenario):
        assert _from_json(_to_json(scenario)) == scenario

    def test_json_is_stable(self):
        scenario = a1_rws_disagreement(3)
        assert _to_json(scenario) == _to_json(scenario)

    def test_dict_shape(self):
        data = scenario_to_dict(floodset_rws_violation(3))
        assert data["n"] == 3
        assert data["crashes"][0]["pid"] == 0
        assert len(data["pending"]) == 2

    def test_missing_field_raises(self):
        with pytest.raises(ConfigurationError):
            scenario_from_dict({"crashes": []})

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_random_scenarios_round_trip(self, seed):
        rng = random.Random(seed)
        scenario = random_scenario(
            4, 2, max_round=3, allow_pending=True, rng=rng
        )
        assert _from_json(_to_json(scenario)) == scenario
