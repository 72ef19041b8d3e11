"""Tests for exhaustive and random scenario enumeration."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.rounds import (
    all_crash_events,
    all_scenarios,
    all_value_assignments,
    random_scenario,
    validate_scenario,
)


class TestValueAssignments:
    def test_binary_count(self):
        assert len(list(all_value_assignments(3))) == 8

    def test_custom_domain(self):
        assert len(list(all_value_assignments(2, domain=(0, 1, 2)))) == 9


class TestCrashEvents:
    def test_count_for_small_case(self):
        # rounds {1,2} x (4 subsets + 1 full-with-transition) = 10.
        events = list(all_crash_events(0, 3, max_round=2))
        assert len(events) == 10

    def test_without_transition_variants(self):
        events = list(
            all_crash_events(0, 3, max_round=2, include_transition=False)
        )
        assert len(events) == 8
        assert all(not e.applies_transition for e in events)

    def test_transition_only_with_full_send(self):
        for event in all_crash_events(0, 4, max_round=3):
            if event.applies_transition:
                assert event.sent_to == frozenset({1, 2, 3})


class TestAllScenarios:
    def test_rs_count_n3_t1(self):
        scenarios = list(
            all_scenarios(3, 1, max_round=2, allow_pending=False)
        )
        # 1 failure-free + 3 victims x 10 events.
        assert len(scenarios) == 31

    def test_every_rs_scenario_is_valid(self):
        for scenario in all_scenarios(3, 1, max_round=3, allow_pending=False):
            assert validate_scenario(scenario, t=1, allow_pending=False) == []

    def test_every_rws_scenario_is_valid(self):
        count = 0
        for scenario in all_scenarios(3, 1, max_round=2, allow_pending=True):
            assert validate_scenario(scenario, t=1, allow_pending=True) == []
            count += 1
        assert count > 31  # pending fan-out adds scenarios

    def test_rws_contains_the_paper_counterexample(self):
        from repro.workloads import a1_rws_disagreement

        target = a1_rws_disagreement(3)
        assert any(
            scenario == target
            for scenario in all_scenarios(
                3, 1, max_round=2, allow_pending=True
            )
        )

    def test_no_duplicates(self):
        scenarios = list(all_scenarios(3, 1, max_round=2, allow_pending=True))
        assert len(set(scenarios)) == len(scenarios)

    def test_max_pending_sets_truncates(self):
        full = list(all_scenarios(3, 1, max_round=2, allow_pending=True))
        truncated = list(
            all_scenarios(
                3, 1, max_round=2, allow_pending=True, max_pending_sets=2
            )
        )
        assert len(truncated) < len(full)

    def test_t_ge_n_rejected(self):
        with pytest.raises(ConfigurationError):
            list(all_scenarios(2, 2, max_round=2, allow_pending=False))

    def test_two_crash_scenarios_present_for_t2(self):
        scenarios = list(all_scenarios(3, 2, max_round=1, allow_pending=False))
        assert any(s.num_failures() == 2 for s in scenarios)


class TestRandomScenario:
    @pytest.mark.parametrize("allow_pending", [False, True])
    def test_always_valid(self, allow_pending):
        rng = random.Random(123)
        for _ in range(200):
            scenario = random_scenario(
                4, 2, max_round=3, allow_pending=allow_pending, rng=rng
            )
            assert (
                validate_scenario(
                    scenario, t=2, allow_pending=allow_pending
                )
                == []
            )

    def test_produces_pending_sometimes(self):
        rng = random.Random(5)
        pending_seen = any(
            random_scenario(
                3, 1, max_round=2, allow_pending=True, rng=rng
            ).pending
            for _ in range(100)
        )
        assert pending_seen


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    t=st.integers(min_value=0, max_value=2),
    max_round=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_random_scenarios_always_admissible(n, t, max_round, seed):
    """Property: random_scenario only produces admissible adversaries."""
    if t >= n:
        return
    rng = random.Random(seed)
    scenario = random_scenario(
        n, t, max_round=max_round, allow_pending=True, rng=rng
    )
    assert validate_scenario(scenario, t=t, allow_pending=True) == []


class TestClosedFormCount:
    @pytest.mark.parametrize("n,t,max_round", [
        (2, 1, 1), (3, 1, 2), (3, 2, 2), (4, 1, 2), (4, 2, 1),
    ])
    def test_formula_matches_enumeration(self, n, t, max_round):
        from repro.rounds import expected_scenario_count

        enumerated = sum(
            1 for _ in all_scenarios(
                n, t, max_round=max_round, allow_pending=False
            )
        )
        assert enumerated == expected_scenario_count(
            n, t, max_round=max_round
        )

    def test_formula_without_transition_variants(self):
        from repro.rounds import expected_scenario_count

        enumerated = sum(
            1 for _ in all_scenarios(
                3, 1, max_round=2, allow_pending=False,
                include_transition=False,
            )
        )
        assert enumerated == expected_scenario_count(
            3, 1, max_round=2, include_transition=False
        )


class TestStreamDrawsEqualThePerCellRoute:
    """``ScenarioSpace.random_rounds`` reseeds one ``Random`` and builds
    one scenario per distinct draw; the per-cell route it replaced is
    kept in ``tests/reference/draws.py``."""

    @pytest.mark.parametrize("t", (1, 2))
    @pytest.mark.parametrize("model", ("RS", "RWS"))
    def test_cell_for_cell_and_name_for_name(self, model, t):
        from repro.runtime.space import ScenarioSpace
        from tests.reference.draws import stream_cells

        for seed, count in ((7, 300), (23, 60), (42, 1), (0, 0)):
            space = ScenarioSpace.random_rounds(
                "stream", algorithm="floodset", model=model, n=4, t=t,
                count=count, seed=seed,
            )
            cells = [
                (request.name, request.scenario) for request in space.requests
            ]
            assert cells == stream_cells(
                "stream", model=model, n=4, t=t, count=count, seed=seed
            ), (seed, count)

    @pytest.mark.parametrize("allow_pending", (False, True))
    def test_random_scenario_is_its_draw_built(self, allow_pending):
        from repro.rounds.enumeration import build_scenario, draw_scenario
        from tests.reference.draws import random_scenario as reference

        kwargs = dict(max_round=3, allow_pending=allow_pending)
        for seed in range(200):
            rngs = [random.Random(seed) for _ in range(3)]
            expected = reference(4, 2, rng=rngs[0], **kwargs)
            assert random_scenario(4, 2, rng=rngs[1], **kwargs) == expected
            draw = draw_scenario(4, 2, rng=rngs[2], **kwargs)
            assert build_scenario(
                4, 2, draw, allow_pending=allow_pending
            ) == expected
            # The same rng calls: every stream ends in the same state.
            assert len({repr(rng.getstate()) for rng in rngs}) == 1
