"""Group plans: one value-free executor run shared by a batch.

A :class:`GroupPlan` is the complete control-flow trace of every cell
sharing ``(algorithm, n, t, model, scenario, max_rounds, params)`` —
the batch *group*.  :func:`build_plan` obtains it by handing the
algorithm's plan kernel (:mod:`repro.vector.kernels`, the algorithm
with its values erased) to the round executor itself, under a
recording observer.  Scenario validation, the crash and pending-message
filters, quiescence, ``run_all_rounds`` and the trailing halts are
therefore the object engine's by construction, which is what keeps the
two engines byte-identical.  A plan holds:

* ``hooks`` — the observer-call sequence, a round's message traffic
  as one ``round_msgs`` descriptor (the executor's ``round_sends`` +
  ``round_deliveries`` pair) and decide events as indexed slots
  awaiting per-cell values;
* ``program`` — per executed round, the batched ``W``-union ops and
  decision-source ops the value kernel runs over the whole batch;
* ``decide_slots``, ``latency`` and ``num_rounds``, which are
  value-independent and therefore shared by the group;
* ``template`` — the group's :class:`~repro.obs.template.TraceTemplate`,
  built on first use by replaying the hooks with no values.  It lives
  as long as the memoized plan, so the batch engine cites a
  ``fresh()`` instance per call (and per digest) instead of this one.

Plans are memoized per group key (scenarios are frozen and hashable),
so sweeping a thousand value assignments over one adversary builds the
plan once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Collection, Sequence

from repro.errors import ConfigurationError, ScenarioError
from repro.obs.events import EventLog, Observer, logical_clock
from repro.obs.template import TraceTemplate, factor
from repro.rounds.executor import RoundModel, execute
from repro.rounds.scenario import FailureScenario
from repro.vector.kernels import plan_kernel_for

#: Memoized plans; bounded so long fuzz campaigns cannot grow it
#: without limit (plans are small, the cap is generous).
_PLAN_CACHE: dict[tuple, "GroupPlan"] = {}
_PLAN_CACHE_MAX = 512


@dataclass(frozen=True)
class GroupPlan:
    """The shared control-flow trace of one batch group."""

    n: int
    kind: str  # "set" (W-bitmask kernel) or "pick" (initial-value kernel)
    #: Observer-call descriptors in emission order.  Decide hooks carry
    #: their slot index instead of a value.
    hooks: tuple[tuple, ...]
    #: ``(pid, round)`` per decide slot, in emission order.
    decide_slots: tuple[tuple[int, int], ...]
    #: Per executed round: ``(unions, decides)`` where ``unions`` is
    #: ``((j, senders), ...)`` and ``decides`` is
    #: ``((slot, pid, op, src), ...)``.
    program: tuple[tuple[tuple, tuple], ...]
    num_rounds: int
    #: The group latency — value-independent, shared by every cell.
    latency: int | None

    def decisions(self, decide_values: Sequence[Any]) -> dict[int, tuple[int, Any]]:
        """One cell's ``pid -> (round, value)`` map from its slot values."""
        return {
            pid: (round_index, decide_values[slot])
            for slot, (pid, round_index) in enumerate(self.decide_slots)
        }

    def replay(self, observer: Observer, decide_values: Sequence[Any]) -> None:
        """Stream the hook sequence into ``observer``: exactly the calls
        the object executor makes — a round's traffic through the same
        two round hooks, so causal observers pair sends with deliveries
        identically on both engines."""
        for hook in self.hooks:
            kind = hook[0]
            if kind == "round_msgs":
                _, round_index, pairs, withheld = hook
                observer.round_sends(round_index, pairs)
                observer.round_deliveries(round_index, pairs, withheld)
            elif kind == "round_start":
                _, round_index, alive = hook
                observer.round_start(round_index, list(alive))
            elif kind == "decide":
                _, slot, pid, round_index = hook
                observer.decide(pid, decide_values[slot], round_index)
            elif kind == "crash":
                _, pid, round_index, applies = hook
                observer.crash(
                    pid, round_index=round_index, applies_transition=applies
                )
            else:  # halt
                _, pid, round_index = hook
                observer.halt(pid, round_index)

    @cached_property
    def template(self) -> TraceTemplate:
        """The group's shared trace template: one replay with every
        decide value ``None``, factored like any recorded trace."""
        log = EventLog(clock=logical_clock())
        self.replay(log, [None] * len(self.decide_slots))
        return factor(log.events).template


class _PlanRecorder(Observer):
    """Turns the executor's observer calls on a plan kernel into hook
    descriptors; a ``decide`` carries the kernel's decision *source*,
    which becomes a slot plus one op of the round's value program."""

    def __init__(self) -> None:
        self.hooks: list[tuple] = []
        self.slots: list[tuple[int, int]] = []
        self.decides: list[list[tuple[int, int, str, int]]] = []

    def round_start(self, round_index: int, alive: Sequence[int]) -> None:
        self.hooks.append(("round_start", round_index, tuple(alive)))
        self.decides.append([])

    def round_sends(
        self, round_index: int, pairs: Sequence[tuple[int, int]]
    ) -> None:
        """Recorded with the deliveries, as one ``round_msgs`` hook."""

    def round_deliveries(
        self,
        round_index: int,
        pairs: Sequence[tuple[int, int]],
        withheld: Collection[tuple[int, int]] = (),
    ) -> None:
        self.hooks.append(
            ("round_msgs", round_index, tuple(pairs), frozenset(withheld))
        )

    def crash(self, pid, *, round_index=None, applies_transition=None, **_) -> None:
        self.hooks.append(("crash", pid, round_index, applies_transition))

    def decide(self, pid, value, round_index=None, **_) -> None:
        slot = len(self.slots)
        self.slots.append((pid, round_index))
        self.decides[-1].append((slot, pid, *value))
        self.hooks.append(("decide", slot, pid, round_index))

    def halt(self, pid, round_index=None, **_) -> None:
        self.hooks.append(("halt", pid, round_index))


def build_plan(
    algorithm: str,
    n: int,
    t: int,
    model: str,
    scenario: FailureScenario,
    max_rounds: int,
    *,
    run_all_rounds: bool = False,
    validate: bool = True,
) -> GroupPlan | None:
    """Build (or recall) the plan for one group.

    Returns ``None`` whenever the group cannot be vectorized — no plan
    kernel for the algorithm or configuration, or an executor refusal
    (mismatched ``n``, a scenario the validator rejects).  Callers fall
    back to the object engine, which reproduces the exact error the
    caller would have seen anyway.
    """
    # ``validate`` is part of the key: a plan built without validation
    # for an invalid scenario must not be recalled by a validating
    # caller (who expects ``None`` → object-engine rejection).
    key = (algorithm, n, t, model, scenario, max_rounds, run_all_rounds, validate)
    cached = _PLAN_CACHE.get(key)
    if cached is not None:
        return cached
    kernel = plan_kernel_for(algorithm, n, t)
    if kernel is None:
        return None
    recorder = _PlanRecorder()
    try:
        run = execute(
            kernel,
            (None,) * n,
            scenario,
            t=t,
            model=RoundModel(model),
            max_rounds=max_rounds,
            validate=validate,
            run_all_rounds=run_all_rounds,
            observer=recorder,
        )
    except (ConfigurationError, ScenarioError):
        return None
    plan = GroupPlan(
        n=n,
        kind=kernel.kind,
        hooks=tuple(recorder.hooks),
        decide_slots=tuple(recorder.slots),
        program=tuple(
            (
                tuple(
                    (pid, state.unions[index])
                    for pid, state in run.final_states.items()
                    if len(state.unions) > index and state.unions[index]
                ),
                tuple(decides),
            )
            for index, decides in enumerate(recorder.decides)
        ),
        num_rounds=run.num_rounds,
        latency=run.latency(),
    )
    if len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
        _PLAN_CACHE.clear()
    _PLAN_CACHE[key] = plan
    return plan
