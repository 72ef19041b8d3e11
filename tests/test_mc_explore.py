"""Exploration invariants: canonicalization, admissibility, reductions."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.mc import McTask, check, explore
from repro.mc.config import Configuration, canonical_form, canonical_key
from repro.mc.symmetry import orbit_canonical, symmetry_for
from repro.obs.causal import cone_signature
from repro.rounds.scenario import CrashEvent, FailureScenario, validate_scenario
from repro.runtime.harness import execute_request
from repro.runtime.request import ExecutionRequest


def _initial_config(algorithm_key, values, t=1):
    from repro.runtime.registry import make_algorithm

    algorithm = make_algorithm(algorithm_key)
    n = len(values)
    return Configuration(
        round=0,
        states=tuple(
            algorithm.initial_state(pid, n, t, values[pid])
            for pid in range(n)
        ),
        decided=(),
        initial_values=tuple(sorted(set(values))),
        obligations=(),
    )


class TestCanonicalization:
    def test_canonical_form_is_stable(self):
        config = _initial_config("floodset", (0, 1, 1))
        assert canonical_form(config) == canonical_form(config)
        assert canonical_key(config) == canonical_key(config)

    def test_distinct_states_hash_differently(self):
        a = _initial_config("floodset", (0, 1, 1))
        b = _initial_config("floodset", (1, 1, 1))
        assert canonical_key(a) != canonical_key(b)

    def test_orbit_canonical_is_permutation_invariant(self):
        # FloodSet's symmetry group is the full symmetric group: any
        # pid relabeling of an initial configuration lands in the same
        # orbit.
        spec = symmetry_for("floodset")
        form_a = orbit_canonical(_initial_config("floodset", (0, 1, 1)), spec)
        form_b = orbit_canonical(_initial_config("floodset", (1, 0, 1)), spec)
        form_c = orbit_canonical(_initial_config("floodset", (0, 0, 1)), spec)
        assert form_a == form_b
        assert form_a != form_c

    def test_floodset_is_not_value_symmetric(self):
        # FloodSet decides min(received values): flipping 0s and 1s is
        # NOT a symmetry, so the assignments (0,1,1) and (1,0,0) — pid
        # relabelings aside — must stay in distinct orbits.
        spec = symmetry_for("floodset")
        form_a = orbit_canonical(_initial_config("floodset", (0, 1, 1)), spec)
        form_b = orbit_canonical(_initial_config("floodset", (1, 0, 0)), spec)
        assert form_a != form_b

    def test_a1_is_value_symmetric(self):
        # A1 forwards whatever value pid 0 proposes, so the 0<->1 value
        # flip IS a symmetry and the flipped assignment collapses.
        spec = symmetry_for("a1")
        form_a = orbit_canonical(_initial_config("a1", (0, 1, 1)), spec)
        form_b = orbit_canonical(_initial_config("a1", (1, 0, 0)), spec)
        assert form_a == form_b

    def test_a1_pids_0_and_1_are_fixed(self):
        # A1's first two processes have special roles; only pids >= 2
        # are interchangeable, so moving the distinguished value onto
        # pid 1 must NOT collapse with it sitting on pid 2.
        spec = symmetry_for("a1")
        form_a = orbit_canonical(_initial_config("a1", (0, 1, 0)), spec)
        form_b = orbit_canonical(_initial_config("a1", (0, 0, 1)), spec)
        assert form_a != form_b


class TestExploration:
    def test_every_leaf_scenario_is_admissible(self):
        for model in ("RS", "RWS"):
            exploration = explore(
                "floodset", n=3, t=1, model=model, horizon=3
            )
            assert exploration.leaves
            for leaf in exploration.leaves:
                problems = validate_scenario(
                    leaf.scenario, t=1, allow_pending=(model == "RWS")
                )
                assert not problems, problems

    def test_stats_are_consistent(self):
        exploration = explore("floodset", n=3, t=1, model="RS", horizon=3)
        stats = exploration.stats
        assert stats.leaves == len(exploration.leaves)
        assert stats.roots_kept <= stats.roots_total
        assert stats.states_visited <= stats.states_generated
        assert stats.quiescent_leaves <= stats.leaves

    def test_reduction_shrinks_the_frontier(self):
        reduced = explore("floodset", n=3, t=1, model="RS", horizon=3)
        full = explore(
            "floodset", n=3, t=1, model="RS", horizon=3, reduce=False
        )
        assert len(reduced.leaves) < len(full.leaves)
        assert reduced.stats.roots_kept < full.stats.roots_kept

    def test_max_states_guard(self):
        with pytest.raises(ConfigurationError):
            explore(
                "floodset", n=4, t=2, model="RS", horizon=4, max_states=10
            )

    def test_every_leaf_decides_all_correct_processes(self):
        exploration = explore("floodset", n=3, t=1, model="RS", horizon=3)
        for leaf in exploration.leaves:
            for pid in leaf.scenario.correct:
                assert pid in leaf.decisions


class TestReduceNoReduceParity:
    @pytest.mark.parametrize(
        "algorithm,model,expected_holds",
        [
            ("floodset", "RS", True),
            ("floodset", "RWS", False),
            ("floodset-ws", "RWS", True),
            ("a1", "RS", True),
        ],
    )
    def test_verdicts_agree(self, algorithm, model, expected_holds):
        def verdict(reduce):
            return check(
                McTask(
                    property_name="agreement",
                    algorithm=algorithm,
                    n=3,
                    t=1,
                    model=model,
                    horizon=3,
                    reduce=reduce,
                    shrink_witness=False,
                )
            ).verdict

        reduced = verdict(True)
        full = verdict(False)
        assert reduced.holds is expected_holds
        assert reduced.label == full.label
        assert reduced.holds == full.holds


class TestDominanceJustification:
    def test_pruned_send_choice_is_invisible_to_survivors(self):
        # The dominance reduction drops sent_to variation toward
        # recipients that never observe the round (they crash in the
        # same round without applying a transition).  Execute one such
        # pruned pair: p0's round-1 message to p1 is the only
        # difference, and p1 itself crashes in round 1 silently — the
        # survivor's causal cone and decisions must coincide.
        def run(p0_sends_to_p1: bool):
            scenario = FailureScenario(
                n=3,
                crashes=(
                    CrashEvent(
                        pid=0,
                        round=1,
                        sent_to=frozenset({1} if p0_sends_to_p1 else ()),
                    ),
                    CrashEvent(pid=1, round=1, sent_to=frozenset()),
                ),
            )
            assert not validate_scenario(scenario, t=2, allow_pending=False)
            return execute_request(
                ExecutionRequest(
                    name="dominance-pair",
                    engine="rounds",
                    algorithm="floodset",
                    values=(0, 1, 1),
                    t=2,
                    model="RS",
                    scenario=scenario,
                    max_rounds=3,
                    check_consensus=False,
                )
            )

        with_send = run(True)
        without_send = run(False)
        assert (
            cone_signature(with_send.events, 2)
            == cone_signature(without_send.events, 2)
        )
        assert with_send.decisions[2] == without_send.decisions[2]

    def test_dominance_counter_fires_where_views_collapse(self):
        exploration = explore("a1", n=3, t=1, model="RS", horizon=3)
        assert exploration.stats.dominance_pruned > 0
