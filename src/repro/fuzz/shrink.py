"""Delta-debugging shrinker: reduce a failing case to a minimal one.

Given a request whose oracles fail and a predicate ``still_fails``, the
shrinker greedily applies *minimality moves* until none is accepted —
a ddmin-style fixpoint over a structured mutation space instead of a
flat token list.  Moves are ordered by how much they simplify the
counterexample a human has to read:

1. drop a whole crash (pattern or scenario);
2. drop one process (``n - 1``, remapping nothing — the removed pid is
   always the highest);
3. drop a pending message (RWS scenarios);
4. move a crash earlier (halve a step time, decrement a round);
5. shrink a crash's reached-recipient set;
6. clear an ``applies_transition`` flag;
7. zero an initial value.

Every mutant is validated for its model before the predicate runs, so
the shrinker can never "simplify" a counterexample into an
inadmissible adversary.  The result: fewest crashes first, then
smallest ``n``, then earliest crash times — exactly the order in which
the generators' Hypothesis counterparts shrink.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Callable, Iterator

from repro.failures.pattern import FailurePattern
from repro.rounds.scenario import (
    CrashEvent,
    FailureScenario,
    validate_scenario,
)
from repro.runtime.request import ROUND_ENGINES, ExecutionRequest


@dataclass
class ShrinkResult:
    """A shrinking run's outcome."""

    request: ExecutionRequest
    attempts: int
    accepted: int


def _replace_request(request: ExecutionRequest, **changes) -> ExecutionRequest:
    return dc_replace(request, **changes)


def _admissible(request: ExecutionRequest) -> bool:
    """A mutant must stay a well-formed case for its engine."""
    if request.n < 2 or request.t < 1 or request.t >= request.n:
        return False
    if request.engine in ROUND_ENGINES:
        return not validate_scenario(
            request.scenario,
            t=request.t,
            allow_pending=(request.model == "RWS"),
            horizon=request.max_rounds,
        )
    return len(request.pattern.faulty) <= request.t


def _pattern_moves(request: ExecutionRequest) -> Iterator[ExecutionRequest]:
    pattern = request.pattern
    for pid in sorted(pattern.crash_times):
        crashes = dict(pattern.crash_times)
        del crashes[pid]
        yield _replace_request(
            request, pattern=FailurePattern.with_crashes(pattern.n, crashes)
        )
    for pid, time in sorted(pattern.crash_times.items()):
        if time > 0:
            crashes = dict(pattern.crash_times)
            crashes[pid] = time // 2
            yield _replace_request(
                request,
                pattern=FailurePattern.with_crashes(pattern.n, crashes),
            )


def _scenario_without_crash(
    scenario: FailureScenario, pid: int
) -> FailureScenario:
    crashes = tuple(e for e in scenario.crashes if e.pid != pid)
    pending = frozenset(p for p in scenario.pending if p.sender != pid)
    return FailureScenario(n=scenario.n, crashes=crashes, pending=pending)


def _with_crash(
    scenario: FailureScenario, event: CrashEvent
) -> FailureScenario:
    crashes = tuple(
        event if e.pid == event.pid else e for e in scenario.crashes
    )
    return FailureScenario(
        n=scenario.n, crashes=crashes, pending=scenario.pending
    )


def _scenario_moves(request: ExecutionRequest) -> Iterator[ExecutionRequest]:
    scenario = request.scenario
    for event in scenario.crashes:
        yield _replace_request(
            request, scenario=_scenario_without_crash(scenario, event.pid)
        )
    for pend in sorted(
        scenario.pending, key=lambda m: (m.round, m.sender, m.recipient)
    ):
        yield _replace_request(
            request,
            scenario=FailureScenario(
                n=scenario.n,
                crashes=scenario.crashes,
                pending=scenario.pending - {pend},
            ),
        )
    for event in scenario.crashes:
        if event.round > 1:
            yield _replace_request(
                request,
                scenario=_with_crash(
                    scenario, dc_replace(event, round=event.round - 1)
                ),
            )
    for event in scenario.crashes:
        for gone in sorted(event.sent_to):
            yield _replace_request(
                request,
                scenario=_with_crash(
                    scenario,
                    dc_replace(
                        event,
                        sent_to=event.sent_to - {gone},
                        applies_transition=False,
                    ),
                ),
            )
    for event in scenario.crashes:
        if event.applies_transition:
            yield _replace_request(
                request,
                scenario=_with_crash(
                    scenario, dc_replace(event, applies_transition=False)
                ),
            )


def _drop_process(request: ExecutionRequest) -> Iterator[ExecutionRequest]:
    """Remove the highest pid; only ever shrinks, never renumbers."""
    n = request.n
    if n <= 3:  # the engines' smallest interesting system
        return
    gone = n - 1
    values = request.values[:-1]
    t = min(request.t, n - 2)
    if request.engine in ROUND_ENGINES:
        scenario = request.scenario
        crashes = tuple(
            dc_replace(
                e,
                sent_to=frozenset(q for q in e.sent_to if q != gone),
                applies_transition=(
                    e.applies_transition
                    and e.sent_to - {gone}
                    == frozenset(range(n - 1)) - {e.pid}
                ),
            )
            for e in scenario.crashes
            if e.pid != gone
        )
        pending = frozenset(
            p
            for p in scenario.pending
            if p.sender != gone and p.recipient != gone
        )
        yield _replace_request(
            request,
            values=values,
            t=t,
            scenario=FailureScenario(n=n - 1, crashes=crashes, pending=pending),
        )
    else:
        crashes = {
            pid: time
            for pid, time in request.pattern.crash_times.items()
            if pid != gone
        }
        yield _replace_request(
            request,
            values=values,
            t=t,
            pattern=FailurePattern.with_crashes(n - 1, crashes),
        )


def _value_moves(request: ExecutionRequest) -> Iterator[ExecutionRequest]:
    for index, value in enumerate(request.values):
        if value != 0:
            values = (
                request.values[:index] + (0,) + request.values[index + 1 :]
            )
            yield _replace_request(request, values=values)


def shrink_moves(request: ExecutionRequest) -> Iterator[ExecutionRequest]:
    """Candidate one-step simplifications, most aggressive first."""
    if request.engine in ROUND_ENGINES:
        yield from _scenario_moves(request)
    else:
        yield from _pattern_moves(request)
    yield from _drop_process(request)
    yield from _value_moves(request)


def shrink(
    request: ExecutionRequest,
    still_fails: Callable[[ExecutionRequest], bool],
    *,
    max_attempts: int = 400,
) -> ShrinkResult:
    """Greedy fixpoint reduction of a failing request.

    ``still_fails`` re-executes a mutant and reports whether any oracle
    still rejects it; a mutant that passes is discarded and the search
    continues from the last failing request.  Deterministic: moves are
    enumerated in a fixed order and the first accepted one restarts the
    scan, so equal inputs shrink identically.
    """
    attempts = 0
    accepted = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for mutant in shrink_moves(request):
            if attempts >= max_attempts:
                break
            if not _admissible(mutant):
                continue
            attempts += 1
            if still_fails(mutant):
                request = mutant
                accepted += 1
                improved = True
                break
    return ShrinkResult(request=request, attempts=attempts, accepted=accepted)
