"""Canonical per-round configurations and their content-addressed keys.

A :class:`Configuration` is the model checker's notion of "where a run
is after ``round`` completed rounds": the per-process algorithm states
(``None`` for crashed processes), the set of values any process has
*ever* decided (crashed deciders included — uniform agreement is about
them), the set of initial values (validity is about them), and the
outstanding weak-round-synchrony obligations (a process that withheld a
message towards a live recipient owes the adversary a crash in the next
round).

Two runs whose configurations coincide have identical futures — the
algorithms are deterministic and the adversary's remaining choices
depend only on who is alive, the crash budget, and the obligations —
so the breadth-first frontier prunes revisits by the configuration's
*canonical key*: the states are serialized into a canonical JSON form
(frozen dataclasses become ``["dc", name, fields]`` nodes, frozensets
are sorted) and hashed, giving a content-addressed identity that is
independent of construction order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any


def encode_value(value: Any) -> Any:
    """Encode ``value`` into a canonical JSON-ready structure.

    Handles the vocabulary algorithm states are built from: JSON
    primitives, tuples/lists, dicts, frozensets (sorted by their
    members' canonical serialization, so iteration order never leaks
    into the key) and frozen dataclasses (tagged with the class name —
    two different state types never collide).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (frozenset, set)):
        members = [encode_value(member) for member in value]
        members.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return ["set", members]
    if isinstance(value, (tuple, list)):
        return ["seq", [encode_value(member) for member in value]]
    if isinstance(value, dict):
        pairs = [
            [encode_value(key), encode_value(member)]
            for key, member in value.items()
        ]
        pairs.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return ["map", pairs]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [
            "dc",
            type(value).__name__,
            [
                [field.name, encode_value(getattr(value, field.name))]
                for field in dataclasses.fields(value)
            ],
        ]
    raise TypeError(
        f"cannot canonically encode {type(value).__name__!r} "
        "(states must be frozen dataclasses over JSON-able fields)"
    )


def value_sort_key(value: Any) -> str:
    """A total order over encodable values (used to sort value sets)."""
    return json.dumps(encode_value(value), sort_keys=True)


def state_token(
    state: Any, pid_field: str | None = None
) -> tuple[str, tuple[int, ...]]:
    """Encode one process slot as ``(skeleton, pids)``.

    ``skeleton`` is the canonical serialization of the state (``null``
    for a crashed slot) with its ``pid_field`` — the one field holding
    a set of process ids, if the state type has one — emptied; ``pids``
    is that set, sorted.  A pid relabeling moves the skeleton unchanged
    and rewrites only the hole, so symmetry reduction orders slots by
    skeleton instead of re-encoding states under every permutation.
    """
    if state is None or pid_field is None:
        return value_sort_key(state), ()
    pids = tuple(sorted(getattr(state, pid_field)))
    emptied = dataclasses.replace(state, **{pid_field: frozenset()})
    return value_sort_key(emptied), pids


@dataclass(frozen=True)
class Configuration:
    """One reachable point of the bounded exploration.

    Attributes:
        round: Number of completed rounds (0 = initial configuration).
        states: Per-pid algorithm state, ``None`` once crashed.
        decided: Every value decided so far by *any* process, crashed
            deciders included, sorted canonically (uniform agreement
            quantifies over these).
        initial_values: The distinct initial values of the run, sorted
            canonically (validity quantifies over these).
        obligations: Sorted ``(pid, deadline_round)`` pairs — ``pid``
            withheld a message towards a live recipient and must crash
            in ``deadline_round`` without applying its transition
            (weak round synchrony, paper Section 4.2).
    """

    round: int
    states: tuple
    decided: tuple
    initial_values: tuple
    obligations: tuple

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def crashed(self) -> frozenset[int]:
        return frozenset(
            pid for pid, state in enumerate(self.states) if state is None
        )

    @property
    def alive(self) -> tuple[int, ...]:
        return tuple(
            pid for pid, state in enumerate(self.states) if state is not None
        )


def canonical_form(config: Configuration) -> str:
    """The configuration's canonical JSON serialization."""
    return json.dumps(
        {
            "round": config.round,
            "states": encode_value(config.states),
            "decided": encode_value(config.decided),
            "initial_values": encode_value(config.initial_values),
            "obligations": encode_value(config.obligations),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def canonical_key(config: Configuration) -> str:
    """Content-addressed identity: sha256 of the canonical form."""
    return hashlib.sha256(canonical_form(config).encode("utf-8")).hexdigest()
