"""Group plans: one value-free executor run shared by a batch.

A :class:`GroupPlan` is the complete control-flow trace of every cell
sharing ``(algorithm, n, t, model, scenario, max_rounds, params)`` —
the batch *group*.  :func:`build_plan` obtains it by handing the
algorithm's plan kernel (:mod:`repro.vector.kernels`, the algorithm
with its values erased) to the round executor itself, recording into
an :class:`~repro.obs.events.EventLog`.  Scenario validation, the crash
and pending-message filters, quiescence, ``run_all_rounds`` and the
trailing halts are therefore the object engine's by construction,
which is what keeps the two engines byte-identical.  A plan holds:

* ``template`` — that recorded trace, factored
  (:func:`~repro.obs.template.factor`): the group's value-free
  :class:`~repro.obs.template.TraceTemplate`, whose holes are the
  kernel's decision sources.  It lives as long as the memoized plan, so
  the batch engine cites a ``fresh()`` instance per call (and per
  digest) instead of this one;
* ``program`` — per executed round, the batched ``W``-union ops and
  decision-source ops the value kernel runs over the whole batch;
* ``decide_slots``, ``latency`` and ``num_rounds``, which are
  value-independent and therefore shared by the group.

Plans are memoized per group key (scenarios are frozen and hashable),
so sweeping a thousand value assignments over one adversary builds the
plan once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import ConfigurationError, ScenarioError
from repro.obs.events import EventLog, logical_clock
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
    #: The group's trace with every decide value ``None``; a cell's
    #: trace is ``template.fill(decide_values)``.
    template: TraceTemplate
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
    log = EventLog(clock=logical_clock())
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
            observer=log,
        )
    except (ConfigurationError, ScenarioError):
        return None
    # A decide event's value is the kernel's decision source ``(op,
    # src)``: factoring makes each one a hole, in slot order.
    cell = factor(log.events)
    template = cell.template
    decide_slots = tuple(
        (template.events[position].pid, template.events[position].round)
        for position in template.positions
    )
    decides: list[list[tuple]] = [[] for _ in range(run.num_rounds)]
    for slot, ((pid, round_index), source) in enumerate(
        zip(decide_slots, cell.holes)
    ):
        decides[round_index - 1].append((slot, pid, *source))
    plan = GroupPlan(
        n=n,
        kind=kernel.kind,
        template=template,
        decide_slots=decide_slots,
        program=tuple(
            (
                tuple(
                    (pid, state.unions[index])
                    for pid, state in run.final_states.items()
                    if len(state.unions) > index and state.unions[index]
                ),
                tuple(round_decides),
            )
            for index, round_decides in enumerate(decides)
        ),
        num_rounds=run.num_rounds,
        latency=run.latency(),
    )
    if len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
        _PLAN_CACHE.clear()
    _PLAN_CACHE[key] = plan
    return plan
