"""A seeded random-adversary stream, one scenario built per cell.

``ScenarioSpace.random_rounds`` draws each cell's adversary with one
reseeded ``Random`` and builds a scenario once per distinct draw.  This
is the per-cell route it replaced, kept as its oracle: a fresh
``random.Random`` per cell, seeded with the cell's derived seed, and
the unsplit draw-and-build of ``random_scenario`` as it read before the
split.  Only the scenario's data types and their validator come from
``repro``; the seed derivation and the draw are written out here.
"""

from __future__ import annotations

import hashlib
import random

from repro.rounds.scenario import (
    CrashEvent,
    FailureScenario,
    PendingMessage,
    validate_scenario,
)


def derived_seed(base: int, index: int) -> int:
    """Cell ``index``'s seed in the stream seeded ``base``."""
    digest = hashlib.sha256(f"{base}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def _pending_candidates(n, crashes, max_round):
    candidates = []
    for event in crashes:
        others = [q for q in range(n) if q != event.pid]
        for recipient in event.sent_to:
            if event.round <= max_round:
                candidates.append(
                    PendingMessage(event.pid, recipient, event.round)
                )
        if (
            event.round >= 2
            and event.round - 1 <= max_round
            and not event.applies_transition
        ):
            for recipient in others:
                candidates.append(
                    PendingMessage(event.pid, recipient, event.round - 1)
                )
    return candidates


def random_scenario(n, t, *, max_round, allow_pending, rng):
    """Up to ``t`` victims, each crashing with probability 0.7; each
    admissible pending message withheld with probability 0.5."""
    victims = []
    for pid in rng.sample(range(n), k=min(t, n - 1)):
        if rng.random() < 0.7:
            victims.append(pid)
    events = []
    for pid in victims:
        others = [q for q in range(n) if q != pid]
        round_index = rng.randint(1, max_round)
        reached = frozenset(q for q in others if rng.random() < 0.5)
        applies = reached == frozenset(others) and rng.random() < 0.5
        events.append(
            CrashEvent(
                pid=pid,
                round=round_index,
                sent_to=reached,
                applies_transition=applies,
            )
        )
    pending = set()
    if allow_pending:
        for candidate in _pending_candidates(n, events, max_round):
            if rng.random() < 0.5:
                pending.add(candidate)
    scenario = FailureScenario(
        n=n, crashes=tuple(events), pending=frozenset(pending)
    )
    if validate_scenario(scenario, t=t, allow_pending=allow_pending):
        scenario = FailureScenario(n=n, crashes=tuple(events))
    return scenario


def stream_cells(name, *, model, n, t, count, seed, max_round=3):
    """``[(cell name, scenario)]`` of the stream, one fresh ``Random``
    and one scenario per cell."""
    return [
        (
            f"{name}-{index:03d}",
            random_scenario(
                n,
                t,
                max_round=max_round,
                allow_pending=(model == "RWS"),
                rng=random.Random(derived_seed(seed, index)),
            ),
        )
        for index in range(count)
    ]
