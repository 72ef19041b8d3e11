"""Exhaustive and randomized generation of failure scenarios.

Exhaustive enumeration over a bounded adversary space is what turns the
paper's latency definitions — which quantify over *all* runs — into
exact, mechanically checkable computations:

* ``lat(A)   = min over all runs`` of the latency degree;
* ``lat(A,C) = min over runs from initial configuration C``;
* ``Lat(A)   = max over C of lat(A, C)``;
* ``Lat(A,f) = max over runs with at most f crashes``;
* ``Λ(A)     = min over f of Lat(A, f) = Lat(A, 0)``.

The space is the product of crash choices (victims × crash rounds ×
reached-recipient subsets × transition flag) and, for RWS, pending-set
choices consistent with weak round synchrony.  Counts grow fast; the
defaults target the paper's regimes (n ≤ 4, t ≤ 2, horizons ≤ t + 2).
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Any, Iterator, NamedTuple, Sequence

from repro.errors import ConfigurationError
from repro.rounds.scenario import (
    CrashEvent,
    FailureScenario,
    PendingMessage,
    validate_scenario,
)


def all_value_assignments(
    n: int, domain: Sequence[Any] = (0, 1)
) -> Iterator[tuple[Any, ...]]:
    """Every initial configuration over ``domain`` (default binary)."""
    yield from itertools.product(domain, repeat=n)


def all_crash_events(
    pid: int, n: int, max_round: int, *, include_transition: bool = True
) -> Iterator[CrashEvent]:
    """Every way process ``pid`` can crash within ``max_round`` rounds."""
    others = [q for q in range(n) if q != pid]
    for round_index in range(1, max_round + 1):
        for size in range(len(others) + 1):
            for subset in itertools.combinations(others, size):
                yield CrashEvent(
                    pid=pid, round=round_index, sent_to=frozenset(subset)
                )
                if include_transition and size == len(others):
                    yield CrashEvent(
                        pid=pid,
                        round=round_index,
                        sent_to=frozenset(subset),
                        applies_transition=True,
                    )


def _pending_candidates(
    n: int, crashes: Sequence[CrashEvent], max_round: int
) -> list[PendingMessage]:
    """Pending messages compatible with weak round synchrony.

    Only messages whose sender crashes by the following round can be
    withheld from a live recipient, so candidates come exclusively from
    crashing processes: messages of their crash round (those actually
    sent) and — when the process does not apply its crash round's
    transition — of the round before it.  (A process that applies its
    round-``r`` transition cannot have a pending round-``r-1`` message:
    in the SP emulation the recipient's suspicion proves the sender
    crashed before that recipient even sent its round-``r`` message,
    which the sender would need to complete round ``r``.)
    """
    return [
        PendingMessage(*slot)
        for slot in _pending_slots(n, crashes, max_round)
    ]


def _pending_slots(
    n: int, crashes: Sequence[Any], max_round: int
) -> Iterator[tuple[int, int, int]]:
    """:func:`_pending_candidates` as ``(sender, recipient, round)``
    triples, in the same order; ``crashes`` need only the
    :class:`CrashEvent` attributes (a :class:`CrashDraw` has them)."""
    for event in crashes:
        # Messages of the crash round itself: those in sent_to.
        if event.round <= max_round:
            for recipient in event.sent_to:
                yield event.pid, recipient, event.round
        # Messages of the previous round: all were sent (the process was
        # then still executing normally), but only a process that does
        # not complete its crash round may have them pending.
        if (
            event.round >= 2
            and event.round - 1 <= max_round
            and not event.applies_transition
        ):
            for recipient in range(n):
                if recipient != event.pid:
                    yield event.pid, recipient, event.round - 1


def all_scenarios(
    n: int,
    t: int,
    *,
    max_round: int,
    allow_pending: bool,
    include_transition: bool = True,
    max_pending_sets: int | None = None,
) -> Iterator[FailureScenario]:
    """Enumerate every admissible scenario with at most ``t`` crashes.

    With ``allow_pending`` (the RWS model) each crash pattern fans out
    over all weak-round-synchrony-consistent pending subsets;
    ``max_pending_sets`` truncates that fan-out when the full power set
    is unnecessary.

    Every yielded scenario passes :func:`validate_scenario`.
    """
    if t >= n:
        raise ConfigurationError(f"t={t} must be < n={n}")
    for f in range(t + 1):
        for victims in itertools.combinations(range(n), f):
            event_choices = [
                list(
                    all_crash_events(
                        pid, n, max_round, include_transition=include_transition
                    )
                )
                for pid in victims
            ]
            for events in itertools.product(*event_choices):
                base = FailureScenario(n=n, crashes=tuple(events))
                if not allow_pending:
                    yield base
                    continue
                candidates = _pending_candidates(n, events, max_round)
                count = 0
                for size in range(len(candidates) + 1):
                    for pending in itertools.combinations(candidates, size):
                        scenario = FailureScenario(
                            n=n,
                            crashes=tuple(events),
                            pending=frozenset(pending),
                        )
                        if validate_scenario(
                            scenario, t=t, allow_pending=True
                        ):
                            continue  # inconsistent combination; skip
                        yield scenario
                        count += 1
                        if (
                            max_pending_sets is not None
                            and count >= max_pending_sets
                        ):
                            break
                    else:
                        continue
                    break


class CrashDraw(NamedTuple):
    """One victim's drawn crash, before it is a :class:`CrashEvent`
    (whose fields it holds, in order)."""

    pid: int
    round: int
    sent_to: frozenset[int]
    applies_transition: bool


#: What :func:`draw_scenario` returns: the crashes in draw order and the
#: withheld ``(sender, recipient, round)`` triples.  Equal draws build
#: equal scenarios.
ScenarioDraw = tuple[tuple[CrashDraw, ...], tuple[tuple[int, int, int], ...]]


def random_scenario(
    n: int,
    t: int,
    *,
    max_round: int,
    allow_pending: bool,
    rng: random.Random,
) -> FailureScenario:
    """Draw one admissible scenario at random (for large spaces).

    Each of up to ``t`` victims crashes with probability 0.7; each
    admissible pending message is withheld with probability 0.5.
    :func:`draw_scenario` then :func:`build_scenario`.
    """
    draw = draw_scenario(
        n, t, max_round=max_round, allow_pending=allow_pending, rng=rng
    )
    return build_scenario(n, t, draw, allow_pending=allow_pending)


def draw_scenario(
    n: int,
    t: int,
    *,
    max_round: int,
    allow_pending: bool,
    rng: random.Random,
) -> ScenarioDraw:
    """:func:`random_scenario`'s random choices, and nothing else: the
    same ``rng`` calls in the same order, no scenario built."""
    victims: list[int] = []
    for pid in rng.sample(range(n), k=min(t, n - 1)):
        if rng.random() < 0.7:
            victims.append(pid)
    crashes: list[CrashDraw] = []
    for pid in victims:
        others = [q for q in range(n) if q != pid]
        round_index = rng.randint(1, max_round)
        reached = frozenset(q for q in others if rng.random() < 0.5)
        applies = reached == frozenset(others) and rng.random() < 0.5
        crashes.append(CrashDraw(pid, round_index, reached, applies))
    withheld: tuple[tuple[int, int, int], ...] = ()
    if allow_pending:
        withheld = tuple(
            slot
            for slot in _pending_slots(n, crashes, max_round)
            if rng.random() < 0.5
        )
    return tuple(crashes), withheld


def build_scenario(
    n: int, t: int, draw: ScenarioDraw, *, allow_pending: bool
) -> FailureScenario:
    """The validated scenario of a :func:`draw_scenario` outcome."""
    crashes, withheld = draw
    events = tuple(CrashEvent(*crash) for crash in crashes)
    scenario = FailureScenario(
        n=n,
        crashes=events,
        pending=frozenset(PendingMessage(*slot) for slot in withheld),
    )
    if validate_scenario(scenario, t=t, allow_pending=allow_pending):
        # Extremely rare (pending combinations are pre-filtered); retry
        # without pending rather than looping.
        scenario = FailureScenario(n=n, crashes=events)
    return scenario


def expected_scenario_count(
    n: int,
    t: int,
    *,
    max_round: int,
    include_transition: bool = True,
) -> int:
    """Closed-form size of the RS adversary space (pending excluded).

    Per victim there are ``max_round * (2^(n-1) + [include_transition])``
    crash events (each round: every reached-subset, plus the completed-
    transition variant); scenarios pick ``f <= t`` victims and an event
    for each.  Used as a self-check against :func:`all_scenarios` — a
    drift between the formula and the generator would mean the
    enumeration silently lost part of the adversary space.
    """
    events_per_victim = max_round * (
        2 ** (n - 1) + (1 if include_transition else 0)
    )
    total = 0
    for f in range(t + 1):
        total += math.comb(n, f) * events_per_victim**f
    return total
