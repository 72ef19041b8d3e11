"""Exploration invariants: canonicalization, admissibility, reductions."""

from __future__ import annotations

import importlib

import pytest

from repro.errors import ConfigurationError
from repro.mc import ExploreStats, McTask, check, explore
from repro.mc.config import Configuration, canonical_form
from repro.mc.symmetry import orbit_canonical, symmetry_for
from repro.obs.diff import local_view
from repro.rounds.scenario import CrashEvent, FailureScenario, validate_scenario
from repro.runtime.harness import execute_request
from repro.runtime.request import ExecutionRequest

explore_module = importlib.import_module("repro.mc.explore")


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

    def test_distinct_states_hash_differently(self):
        a = _initial_config("floodset", (0, 1, 1))
        b = _initial_config("floodset", (1, 1, 1))
        assert canonical_form(a) != canonical_form(b)

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


class TestChoicesUpToTheStabiliser:
    """Adversary choices as counts per stabiliser class (reduction 4)."""

    @pytest.mark.parametrize(
        "algorithm,n,t,model",
        [
            ("floodset", 4, 2, "RS"),
            ("f-opt", 4, 2, "RS"),
            ("floodset-ws", 4, 1, "RWS"),
            ("c-opt-ws", 3, 1, "RWS"),
            ("eager-floodset-ws", 3, 1, "RWS"),
            ("a1", 4, 1, "RWS"),
            ("a1", 4, 1, "RS"),
        ],
    )
    def test_every_successor_orbit_of_the_subset_enumeration_is_reached(
        self, monkeypatch, algorithm, n, t, model
    ):
        # At every configuration the reduced exploration expands, the
        # class colouring must produce exactly the successor orbits the
        # all-singletons colouring (the subset enumeration) produces.
        spec = symmetry_for(algorithm)
        singletons = [(pid,) for pid in range(n)]
        real = explore_module._expand
        generated = {"classes": 0, "subsets": 0}

        def forms(node, round_index, colouring, counter, **kwargs):
            kwargs["stats"] = ExploreStats()
            successors = list(
                real(node, round_index, colouring=colouring, **kwargs)
            )
            generated[counter] += len(successors)
            return {orbit_canonical(s.config, spec) for s in successors}

        def checked(node, round_index, *, colouring, **kwargs):
            assert forms(
                node, round_index, colouring, "classes", **kwargs
            ) == forms(node, round_index, singletons, "subsets", **kwargs)
            return real(node, round_index, colouring=colouring, **kwargs)

        monkeypatch.setattr(explore_module, "_expand", checked)
        stats = explore(algorithm, n=n, t=t, model=model, horizon=3).stats
        assert generated["classes"] == stats.states_generated
        assert generated["classes"] < generated["subsets"]

    @pytest.mark.parametrize(
        "algorithm,n,t,model,choices",
        [
            ("floodset", 3, 1, "RS", 376),
            ("f-opt", 3, 2, "RS", 9048),
            ("a1", 4, 1, "RS", 1760),
            ("floodset-ws", 3, 1, "RWS", 8512),
            ("c-opt-ws", 3, 1, "RWS", 8132),
            ("a1", 3, 1, "RWS", 2760),
        ],
    )
    def test_twin_mode_enumerates_the_full_admissible_space(
        self, algorithm, n, t, model, choices
    ):
        # choices_explored of the subset enumerator this one replaced
        # (which built all 2^|pairs| RWS withhold sets and rejected the
        # over-budget ones): admissible-first must count the same.
        stats = explore(
            algorithm,
            n=n,
            t=t,
            model=model,
            horizon=3,
            reduce=False,
            max_states=10**6,
        ).stats
        assert stats.choices_explored == choices
        assert stats.symmetry_pruned == stats.dominance_pruned == 0

    def test_symmetry_pruned_is_a_statistic_not_a_headline(self):
        verdict = check(
            McTask(property_name="agreement", algorithm="floodset", n=4, t=2)
        ).verdict
        assert verdict.stats["symmetry_pruned"] > 0
        assert verdict.stats["states_generated"] <= 600
        assert (verdict.stats["states_visited"], verdict.stats["leaves"]) == (52, 13)
        frontier_line = verdict.describe().splitlines()[1]
        assert frontier_line == (
            "  frontier: 52 states, 13 leaves/cells, 456 revisits pruned, "
            "192 dominated choices pruned"
        )


class TestReach:
    """Instances the subset enumeration kept minutes away (4 s, 151 s,
    44 s) or, at n=5 in RWS, out of tier-1 altogether."""

    @pytest.mark.parametrize(
        "property_name,algorithm,n,t,model,holds",
        [
            ("agreement", "floodset", 6, 2, "RS", True),
            ("uniform-agreement", "floodset-ws", 5, 1, "RWS", True),
            ("uniform-agreement", "floodset", 5, 1, "RWS", False),
            ("uniform-agreement", "a1", 5, 1, "RWS", False),
        ],
    )
    def test_verdict(self, property_name, algorithm, n, t, model, holds):
        verdict = check(
            McTask(
                property_name=property_name,
                algorithm=algorithm,
                n=n,
                t=t,
                model=model,
                shrink_witness=False,
            )
        ).verdict
        assert verdict.label == ("HOLDS(exhaustive)" if holds else "REFUTED")
        if algorithm == "a1":
            # ROADMAP's "a1 n=5 t=1 RWS exhaustive in < 3 s", as a count
            assert verdict.stats["choices_explored"] <= 3500


class TestDominanceJustification:
    def test_pruned_send_choice_is_invisible_to_survivors(self):
        # The dominance reduction drops sent_to variation toward
        # recipients that never observe the round (they crash in the
        # same round without applying a transition).  Execute one such
        # pruned pair: p0's round-1 message to p1 is the only
        # difference, and p1 itself crashes in round 1 silently — the
        # survivor's local view and decisions must coincide.
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
        assert local_view(
            with_send.events, 2, inputs=(0, 1, 1)
        ) == local_view(without_send.events, 2, inputs=(0, 1, 1))
        assert with_send.decisions[2] == without_send.decisions[2]

    def test_dominance_counter_fires_where_views_collapse(self):
        exploration = explore("a1", n=3, t=1, model="RS", horizon=3)
        assert exploration.stats.dominance_pruned > 0
