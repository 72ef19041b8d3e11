"""Symmetry reduction: orbit-canonical configuration forms.

Two configurations related by a process-id permutation (for algorithms
whose code is the same at every process) or by a value-domain bijection
(for algorithms that transport values opaquely) have isomorphic
futures, and every property the checker evaluates — agreement, uniform
agreement, validity, termination, latency — is invariant under the
relabeling.  The checker therefore identifies a configuration with its
*orbit-canonical form*: the least encoding over the algorithm's
declared symmetry group, equal for two configurations iff they share
an orbit.

A pid permutation only moves *slots* — a process's state and its open
obligation deadline — so each slot is encoded once
(:func:`repro.mc.config.state_token`) and the form is ``(header,
skeletons, holes)``, one skeleton and one pid tuple per position, fixed
pids in place.  A permutation rearranges the movable entries, and the
lexicographically least arrangement of a sequence is the sorted one: for
states that name no pids the representative is the movable skeletons
*sorted*, and no permutation is ever built.  A state that carries a pid
set (``halt``) splits into a pid-free skeleton plus the pids as a hole.
Skeletons compare first, so the least form still has them sorted, which
fixes the permutation up to the order *within* each class of equal
skeletons; only those ∏|class|! relabelings are enumerated, judged by
their relabeled holes alone.  Value bijections are an outer loop over
the |domain|! re-tokenisations.

Soundness is per-algorithm and declared explicitly here:

* The FloodSet family (plain, WS, C_Opt, F_Opt, eager) runs identical
  code at every process, so the full symmetric group applies; the WS
  variants' ``halt`` sets are relabeled through the permutation.
* A1 gives p0 and p1 fixed roles, so only pids ``>= 2`` are
  interchangeable.  Its transitions never *order* values (`w` and the
  report payloads are opaque), so A1 is additionally value-symmetric.
* FloodSet-style algorithms decide ``min(W)`` — an order-*sensitive*
  rule — so a value permutation does **not** commute with them and is
  never applied.

The same declarations drive the explorer's *choice* enumeration:
:func:`stabiliser_classes` colours the pids of a configuration so that
every permutation inside the colour classes maps the configuration to
itself, and :mod:`repro.mc.explore` enumerates each adversary pick as a
count per class instead of a subset.

Algorithms not registered here get the trivial group: canonical state
hashing still deduplicates exact revisits, only the quotient is
coarser.  The ``--no-reduce`` twin mode skips this module entirely;
its verdicts must agree with the reduced run (tested for every entry),
which is the executable soundness argument for every declaration above.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.mc.config import Configuration, state_token, value_sort_key


@dataclass(frozen=True)
class SymmetrySpec:
    """One algorithm's declared symmetries.

    Attributes:
        movable: Given ``n``, the pids that are interchangeable (they
            are permuted among themselves; every other pid is fixed).
        pid_field: The state field holding a frozenset of pids, which a
            pid permutation must relabel; ``None`` for states that
            never name pids.
        value_fields: The state fields holding one opaque value each,
            for algorithms that commute with every bijection of the
            value domain; empty when values are ordered or inspected.
    """

    movable: Callable[[int], tuple[int, ...]]
    pid_field: str | None = None
    value_fields: tuple[str, ...] = ()


def _all_pids(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _non_role_pids(n: int) -> tuple[int, ...]:
    return tuple(range(2, n))


#: Algorithm registry key -> declared symmetry.
SYMMETRIES: dict[str, SymmetrySpec] = {
    "floodset": SymmetrySpec(movable=_all_pids),
    "floodset-ws": SymmetrySpec(movable=_all_pids, pid_field="halt"),
    "c-opt": SymmetrySpec(movable=_all_pids),
    "c-opt-ws": SymmetrySpec(movable=_all_pids, pid_field="halt"),
    "f-opt": SymmetrySpec(movable=_all_pids),
    "f-opt-ws": SymmetrySpec(movable=_all_pids, pid_field="halt"),
    "eager-floodset-ws": SymmetrySpec(movable=_all_pids, pid_field="halt"),
    "a1": SymmetrySpec(
        movable=_non_role_pids, value_fields=("w", "decision")
    ),
}

#: The trivial group: nothing moves, no value bijections.
TRIVIAL = SymmetrySpec(movable=lambda n: ())


def symmetry_for(algorithm_key: str) -> SymmetrySpec:
    """The declared symmetry of ``algorithm_key`` (trivial if unknown)."""
    return SYMMETRIES.get(algorithm_key, TRIVIAL)


def _value_maps(spec: SymmetrySpec, config: Configuration) -> list:
    """All value bijections of the observed domain (``None``: no group)."""
    if not spec.value_fields:
        return [None]
    domain = sorted(set(config.initial_values), key=value_sort_key)
    return [
        dict(zip(domain, images)) for images in itertools.permutations(domain)
    ]


def _relabeled_holes(
    skeletons: Sequence[str],
    holes: Sequence[tuple[int, ...]],
    movable: Sequence[int],
    order: Sequence[int],
) -> Iterator[list[tuple[int, ...]]]:
    """The holes under every relabeling that leaves the skeletons sorted.

    ``order`` lists the movable pids by skeleton; pids with equal
    skeletons form a class that fills a fixed block of positions, so
    the relabelings are exactly the orders within each class.
    """
    classes = [
        tuple(group)
        for _, group in itertools.groupby(order, key=skeletons.__getitem__)
    ]
    for blocks in itertools.product(*map(itertools.permutations, classes)):
        perm = list(range(len(holes)))
        for new, old in zip(movable, itertools.chain.from_iterable(blocks)):
            perm[old] = new
        relabeled: list[tuple[int, ...]] = [()] * len(holes)
        for old, pids in enumerate(holes):
            relabeled[perm[old]] = tuple(sorted([perm[pid] for pid in pids]))
        yield relabeled


def _slot_token(state: Any, spec: SymmetrySpec, tokens: dict) -> tuple:
    """``state``'s memoised ``(skeleton, pids)`` slot token."""
    token = tokens.get(state)
    if token is None:
        token = tokens[state] = state_token(state, spec.pid_field)
    return token


def _slot_form(
    config: Configuration,
    spec: SymmetrySpec,
    vmap: Mapping[Any, Any] | None,
    tokens: dict,
) -> tuple:
    """The least form over the pid permutations, under one value map."""
    due = {pid: f"@{deadline}" for pid, deadline in config.obligations}
    skeletons: list[str] = []
    holes: list[tuple[int, ...]] = []
    for pid, state in enumerate(config.states):
        if vmap is not None and state is not None:
            held = {name: getattr(state, name) for name in spec.value_fields}
            state = replace(
                state, **{name: vmap.get(v, v) for name, v in held.items()}
            )
        skeleton, hole = _slot_token(state, spec, tokens)
        skeletons.append(skeleton + due.get(pid, ""))
        holes.append(hole)

    movable = spec.movable(config.n)
    order = sorted(movable, key=skeletons.__getitem__)
    if any(holes) and len(movable) > 1:
        holes = min(_relabeled_holes(skeletons, holes, movable, order))
    arranged = list(skeletons)
    for new, old in zip(movable, order):
        arranged[new] = skeletons[old]
    decided, initial_values = config.decided, config.initial_values
    if vmap is not None:
        decided, initial_values = (
            sorted((vmap.get(v, v) for v in values), key=value_sort_key)
            for values in (decided, initial_values)
        )
    header = value_sort_key((config.round, decided, initial_values))
    return header, tuple(arranged), tuple(holes)


def orbit_canonical(
    config: Configuration, spec: SymmetrySpec, tokens: dict | None = None
) -> tuple:
    """The configuration's canonical form over the declared group.

    A complete orbit invariant: two configurations get equal forms iff
    some (pid permutation × value bijection) of the group maps one to
    the other.  ``tokens`` memoises state → slot token; pass one dict
    for the lifetime of an exploration (one spec), or nothing.
    """
    if tokens is None:
        tokens = {}
    return min(
        _slot_form(config, spec, vmap, tokens)
        for vmap in _value_maps(spec, config)
    )


def _swap_fixes_holes(
    holes: Mapping[int, tuple[int, ...]], p: int, q: int
) -> bool:
    """Does the transposition ``(p q)`` map the pid sets onto themselves?"""
    swap = {p: q, q: p}
    return all(
        {swap.get(pid, pid) for pid in pids}
        == set(holes[swap.get(owner, owner)])
        for owner, pids in holes.items()
    )


def stabiliser_classes(
    config: Configuration, spec: SymmetrySpec, tokens: dict | None = None
) -> list[tuple[int, ...]]:
    """Colour the pids so that permuting within a colour fixes ``config``.

    Two movable alive pids share a class iff their transposition —
    slots swapped, obligation status included, the ``pid_field`` sets
    of *every* slot relabeled — maps the configuration to itself.
    Transposability is an equivalence (``(p r) = (p q)(q r)(p q)``, and
    the maps fixing ``config`` form a group), and the transpositions of
    a class generate its symmetric group, so every permutation inside
    the classes is an automorphism of the configuration: the classes
    span a subgroup of its stabiliser in the declared pid group.  Fixed
    and crashed pids are singletons.  Value bijections are not used.

    Classes come ordered by their least pid, members ascending.
    ``tokens`` is :func:`orbit_canonical`'s state → slot token memo.
    """
    if tokens is None:
        tokens = {}
    due = dict(config.obligations)
    movable = set(spec.movable(config.n))
    keys: dict[int, tuple] = {}
    holes: dict[int, tuple[int, ...]] = {}
    for pid in config.alive:
        skeleton, holes[pid] = _slot_token(config.states[pid], spec, tokens)
        if pid in movable:
            keys[pid] = (skeleton, due.get(pid))
    named = any(holes.values())
    classes: list[list[int]] = []
    for pid in range(config.n):
        key = keys.get(pid)
        for members in classes if key is not None else ():
            if keys.get(members[0]) == key and (
                not named or _swap_fixes_holes(holes, members[0], pid)
            ):
                members.append(pid)
                break
        else:
            classes.append([pid])
    return [tuple(members) for members in classes]
