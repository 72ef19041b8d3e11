"""The symmetry quotient: slot-factored forms against an n!-enumeration.

``reference_form`` below is the permute-and-serialise search the
checker used to run — every group element applied to the whole
configuration, every image JSON-encoded, the least string kept.  It is
the specification; :func:`repro.mc.symmetry.orbit_canonical` must
induce exactly the same partition of configurations, which is what
keeps the reduced frontier (and every count derived from it) fixed.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
from dataclasses import replace

import pytest

from repro.cli.main import main
from repro.mc import explore
from repro.mc.config import Configuration, canonical_form, value_sort_key
from repro.mc.symmetry import (
    SYMMETRIES,
    orbit_canonical,
    stabiliser_classes,
    symmetry_for,
)
from repro.runtime.registry import make_algorithm

explore_module = importlib.import_module("repro.mc.explore")


# -- the n!-enumeration reference ---------------------------------------------


def group_elements(config, spec):
    """Every ``(pid map, value map | None)`` of the declared group."""
    movable = list(spec.movable(config.n))
    perms = []
    for images in itertools.permutations(movable):
        perm = list(range(config.n))
        for old, new in zip(movable, images):
            perm[old] = new
        perms.append(tuple(perm))
    vmaps = [None]
    if spec.value_fields:
        domain = sorted(set(config.initial_values), key=value_sort_key)
        vmaps = [
            dict(zip(domain, images))
            for images in itertools.permutations(domain)
        ]
    return list(itertools.product(perms, vmaps))


def apply_element(config, spec, perm, vmap):
    """The image configuration ``g·c``, built slot by slot."""
    states = [None] * config.n
    for old, state in enumerate(config.states):
        if state is None:
            continue
        if spec.pid_field is not None:
            pids = getattr(state, spec.pid_field)
            state = replace(
                state,
                **{spec.pid_field: frozenset(perm[pid] for pid in pids)},
            )
        if vmap is not None:
            state = replace(
                state,
                **{
                    name: vmap.get(getattr(state, name), getattr(state, name))
                    for name in spec.value_fields
                },
            )
        states[perm[old]] = state

    def values(members):
        if vmap is None:
            return members
        return tuple(
            sorted((vmap.get(v, v) for v in members), key=value_sort_key)
        )

    return Configuration(
        round=config.round,
        states=tuple(states),
        decided=values(config.decided),
        initial_values=values(config.initial_values),
        obligations=tuple(
            sorted((perm[pid], deadline) for pid, deadline in config.obligations)
        ),
    )


def reference_form(config, spec):
    return min(
        canonical_form(apply_element(config, spec, perm, vmap))
        for perm, vmap in group_elements(config, spec)
    )


def reached_configurations(monkeypatch, algorithm, n, t, model):
    """Every configuration a reduced exploration canonicalises."""
    seen = []
    real = explore_module.orbit_canonical

    def recording(config, spec, tokens=None):
        seen.append(config)
        return real(config, spec, tokens)

    with monkeypatch.context() as patch:
        patch.setattr(explore_module, "orbit_canonical", recording)
        explore(algorithm, n=n, t=t, model=model, horizon=3)
    return seen


def stats_tuple(algorithm, n, t, model):
    stats = explore(algorithm, n=n, t=t, model=model, horizon=3).stats
    return (
        stats.states_visited,
        stats.states_generated,
        stats.leaves,
        stats.revisit_pruned,
    )


# -- the quotient is pinned ---------------------------------------------------


class TestQuotient:
    @pytest.mark.parametrize(
        "algorithm,n,t,model",
        [
            ("floodset", 3, 1, "RS"),
            ("floodset-ws", 3, 1, "RWS"),
            ("c-opt-ws", 3, 1, "RWS"),
            ("a1", 4, 1, "RWS"),
        ],
    )
    def test_same_partition_as_the_enumeration(
        self, monkeypatch, algorithm, n, t, model
    ):
        spec = symmetry_for(algorithm)
        configs = reached_configurations(monkeypatch, algorithm, n, t, model)
        assert configs
        pairs = set()
        for config in configs:
            form = orbit_canonical(config, spec)
            # (i) invariant under every group element
            for perm, vmap in group_elements(config, spec):
                image = apply_element(config, spec, perm, vmap)
                assert orbit_canonical(image, spec) == form
            pairs.add((form, reference_form(config, spec)))
        # (ii) equal new forms iff equal reference forms
        assert len(pairs) == len({new for new, _ in pairs})
        assert len(pairs) == len({ref for _, ref in pairs})

    @pytest.mark.parametrize(
        "algorithm,n,t,model,expected",
        [
            ("floodset", 3, 1, "RS", (22, 52, 8, 38)),
            ("floodset", 4, 2, "RS", (52, 492, 13, 456)),
            ("floodset", 5, 2, "RS", (59, 994, 13, 967)),
            ("floodset-ws", 3, 1, "RWS", (50, 204, 20, 162)),
            ("floodset-ws", 4, 1, "RWS", (67, 491, 26, 440)),
            ("a1", 3, 1, "RWS", (77, 395, 30, 326)),
            ("a1", 4, 1, "RWS", (119, 1196, 43, 1093)),
            ("c-opt-ws", 3, 1, "RWS", (44, 180, 16, 144)),
            ("f-opt", 4, 2, "RS", (70, 504, 19, 450)),
        ],
    )
    def test_golden_frontier_counts(self, algorithm, n, t, model, expected):
        # (states_visited, states_generated, leaves, revisit_pruned).
        # Visited states and leaves are as counted with the
        # n!-enumeration in place; the generated and revisited counts
        # were re-pinned (e.g. 2823/2787 at n=4 t=2) when adversary
        # choices became counts per stabiliser class.
        assert stats_tuple(algorithm, n, t, model) == expected

    @pytest.mark.parametrize(
        "algorithm,n,exit_code,digest",
        [
            (
                "floodset-ws",
                3,
                0,
                "2ebffd5608f37b5d85fae945bf5d4b673a336a6d65c5d6601a08d2572b30b0f8",
            ),
            (
                "a1",
                4,
                1,  # A1 is an RS algorithm: REFUTED under RWS
                "4aca925bd1dc88b493b961751134baa7080d56ef56bd4fc00a9dbaf7e4b88ff6",
            ),
        ],
        # digest-free ids: a re-pin must not rename the test
        ids=["floodset-ws", "a1"],
    )
    def test_saved_frontier_is_byte_identical(
        self, tmp_path, capsys, algorithm, n, exit_code, digest
    ):
        # sha256 of the file written for the same command: the leaves
        # — same representatives, first-visited in the same order — are
        # those the n!-enumeration and the subset enumeration of choices
        # wrote.  Re-pinned for the class-count enumeration, in both
        # files for the "stats" object alone: states_generated,
        # revisit_pruned, dominance_pruned and choices_explored moved,
        # symmetry_pruned is new.
        frontier = tmp_path / "frontier.json"
        argv = ["mc", "agreement", "--algorithm", algorithm, "--n", str(n)]
        argv += ["--t", "1", "--model", "RWS", "--save-frontier", str(frontier)]
        assert main(argv) == exit_code
        capsys.readouterr()
        assert hashlib.sha256(frontier.read_bytes()).hexdigest() == digest

    def test_obligation_deadlines_travel_with_their_slot(self):
        algorithm = make_algorithm("floodset-ws")
        states = tuple(
            algorithm.initial_state(pid, 3, 1, value)
            for pid, value in enumerate((0, 1, 1))
        )

        def config(obligor):
            return Configuration(
                round=1,
                states=states,
                decided=(),
                initial_values=(0, 1),
                obligations=((obligor, 2),),
            )

        spec = symmetry_for("floodset-ws")
        # p1 and p2 hold equal states, p0 does not.
        assert orbit_canonical(config(1), spec) == orbit_canonical(config(2), spec)
        assert orbit_canonical(config(0), spec) != orbit_canonical(config(1), spec)


# -- the colouring choices are enumerated against ---------------------------


def transposed(config, spec, p, q):
    perm = list(range(config.n))
    perm[p], perm[q] = q, p
    return apply_element(config, spec, tuple(perm), None)


class TestStabiliserClasses:
    @pytest.mark.parametrize(
        "algorithm,n,t,model",
        [
            ("floodset", 4, 2, "RS"),
            ("floodset-ws", 4, 1, "RWS"),
            ("eager-floodset-ws", 3, 1, "RWS"),
            ("a1", 4, 1, "RWS"),
        ],
    )
    def test_classes_are_the_transposition_classes(
        self, monkeypatch, algorithm, n, t, model
    ):
        spec = symmetry_for(algorithm)
        movable = set(spec.movable(n))
        merged = 0
        for config in reached_configurations(monkeypatch, algorithm, n, t, model):
            classes = stabiliser_classes(config, spec)
            assert sorted(pid for members in classes for pid in members) == list(
                range(n)
            )
            assert classes == sorted(classes) and all(
                members == tuple(sorted(members)) for members in classes
            )
            colour = {
                pid: index
                for index, members in enumerate(classes)
                for pid in members
            }
            for members in classes:
                if len(members) > 1:
                    merged += 1
                    assert set(members) <= movable & set(config.alive)
            for p, q in itertools.combinations(config.alive, 2):
                fixes = (
                    {p, q} <= movable
                    and transposed(config, spec, p, q) == config
                )
                # within a class every transposition is an automorphism;
                # across classes none is, so no two classes could merge
                assert fixes == (colour[p] == colour[q]), (config, p, q)
        assert merged

    def test_an_obligor_is_told_apart_from_its_twin(self):
        algorithm = make_algorithm("floodset-ws")
        config = Configuration(
            round=1,
            states=tuple(
                algorithm.initial_state(pid, 4, 2, value)
                for pid, value in enumerate((0, 1, 1, 1))
            ),
            decided=(),
            initial_values=(0, 1),
            obligations=((2, 2),),
        )
        spec = symmetry_for("floodset-ws")
        assert stabiliser_classes(config, spec) == [(0,), (1, 3), (2,)]

    def test_unregistered_algorithms_get_singletons(self):
        config = Configuration(
            round=0,
            states=tuple(
                make_algorithm("floodset").initial_state(pid, 3, 1, 0)
                for pid in range(3)
            ),
            decided=(),
            initial_values=(0,),
            obligations=(),
        )
        assert stabiliser_classes(config, symmetry_for("no-such")) == [
            (0,),
            (1,),
            (2,),
        ]


# -- the registry fits its algorithms -----------------------------------------


def _verdicts(exploration):
    """(agreement holds, uniform agreement holds) over explorer leaves."""
    agreement = uniform = True
    for leaf in exploration.leaves:
        decided = {pid: value for pid, (_, value) in leaf.decisions.items()}
        if len(set(decided.values())) > 1:
            uniform = False
        correct = {decided[pid] for pid in leaf.scenario.correct if pid in decided}
        if len(correct) > 1:
            agreement = False
    return agreement, uniform


class TestRegistry:
    @pytest.mark.parametrize("key", sorted(SYMMETRIES))
    def test_spec_fits_its_algorithm(self, key):
        spec = SYMMETRIES[key]
        state = make_algorithm(key).initial_state(0, 3, 1, 0)
        if spec.pid_field is not None:
            assert isinstance(getattr(state, spec.pid_field), frozenset)
        for name in spec.value_fields:
            assert hasattr(state, name)
        for model in ("RS", "RWS"):
            reduced = explore(key, n=3, t=1, model=model, horizon=3)
            full = explore(
                key, n=3, t=1, model=model, horizon=3, reduce=False
            )
            assert len(reduced.leaves) < len(full.leaves)
            assert _verdicts(reduced) == _verdicts(full)

    def test_eager_floodset_ws_separates_the_two_consensus_problems(
        self, capsys
    ):
        # Section 5.1: in RWS consensus is solvable where uniform
        # consensus is not.  The reduced run used to die relabeling a
        # field FloodSetWSState does not have.
        def run(property_name, *extra):
            argv = ["mc", property_name, "--algorithm", "eager-floodset-ws"]
            argv += ["--n", "3", "--t", "1", "--model", "RWS", "--no-shrink"]
            rc = main(argv + list(extra))
            return rc, capsys.readouterr().out

        for extra in ((), ("--no-reduce",)):
            rc, out = run("agreement", *extra)
            assert rc == 0 and "HOLDS(exhaustive)" in out
            rc, out = run("uniform-agreement", *extra)
            assert rc == 1 and "REFUTED" in out


# -- the instances the enumeration kept out of reach --------------------------


class TestScale:
    def test_ten_process_configuration_returns(self):
        # 10! = 3.6 M relabelings on the enumeration path; here a sort.
        algorithm = make_algorithm("floodset")
        values = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1)

        def config(assignment):
            return Configuration(
                round=0,
                states=tuple(
                    algorithm.initial_state(pid, 10, 3, value)
                    for pid, value in enumerate(assignment)
                ),
                decided=(),
                initial_values=(0, 1),
                obligations=(),
            )

        spec = symmetry_for("floodset")
        form = orbit_canonical(config(values), spec)
        assert form == orbit_canonical(config(values[::-1]), spec)
        assert form != orbit_canonical(config((0,) + values[1:]), spec)

    def test_floodset_n5_t2_agreement_holds_exhaustively(self, capsys):
        argv = ["mc", "agreement", "--algorithm", "floodset"]
        assert main(argv + ["--n", "5", "--t", "2"]) == 0
        assert "HOLDS(exhaustive)" in capsys.readouterr().out
