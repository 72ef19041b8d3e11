"""Group plans: one value-free symbolic execution shared by a batch.

A :class:`GroupPlan` is the complete control-flow trace of every cell
sharing ``(algorithm, n, t, model, scenario, max_rounds, params)`` —
the batch *group*.  It is built by replaying the round executor's exact
per-round contract (round_start, send loop in pid/recipient order under
the scenario's crash filter, delivery loop in send order under the
pending-message filter, transition loop with crash events, quiescence,
trailing halts) against a plan kernel from
:mod:`repro.vector.kernels`, producing:

* ``hooks`` — the observer-call sequence, a round's message traffic
  as one ``round_msgs`` descriptor (the executor's ``round_sends`` +
  ``round_deliveries`` pair) and decide events as indexed slots
  awaiting per-cell values;
* ``program`` — per executed round, the batched ``W``-union ops and
  decision-source ops the value kernel runs over the whole batch;
* the template ``decisions`` rounds, ``latency`` and ``num_rounds``,
  which are value-independent and therefore shared by the group.

The adversary predicates (``sends_reach``, ``withholds``) are the
*same methods* of :class:`~repro.rounds.scenario.FailureScenario` the
object executor uses — one source of truth for the crash/pending
semantics, which is what keeps the two engines byte-identical.

Plans are memoized per group key (scenarios are frozen and hashable),
so sweeping a thousand value assignments over one adversary builds the
plan once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rounds.executor import RoundModel
from repro.rounds.scenario import FailureScenario, validate_scenario
from repro.vector.kernels import PlanState, plan_kernel_for

#: Memoized plans; bounded so long fuzz campaigns cannot grow it
#: without limit (plans are small, the cap is generous).
_PLAN_CACHE: dict[tuple, "GroupPlan"] = {}
_PLAN_CACHE_MAX = 512


@dataclass(frozen=True)
class GroupPlan:
    """The shared control-flow trace of one batch group."""

    algorithm: str
    n: int
    t: int
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
    #: ``pid -> round`` decision template (values vary per cell).
    decision_rounds: tuple[tuple[int, int], ...]
    #: The group latency — value-independent, shared by every cell.
    latency: int | None


def group_key(
    algorithm: str,
    n: int,
    t: int,
    model: str,
    scenario: FailureScenario,
    max_rounds: int,
    run_all_rounds: bool,
    validate: bool = True,
) -> tuple:
    # ``validate`` is part of the key: a plan built without validation
    # for an invalid scenario must not be recalled by a validating
    # caller (who expects ``None`` → object-engine rejection).
    return (algorithm, n, t, model, scenario, max_rounds, run_all_rounds, validate)


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

    Returns ``None`` whenever the group cannot be vectorized — unknown
    or unsupported algorithm, mismatched ``n``, or a scenario the
    validator rejects.  Callers fall back to the object engine, which
    reproduces the exact error (and ``scenario_rejected`` observer
    call) the caller would have seen anyway.
    """
    key = group_key(
        algorithm, n, t, model, scenario, max_rounds, run_all_rounds, validate
    )
    cached = _PLAN_CACHE.get(key)
    if cached is not None:
        return cached
    if n != scenario.n:
        return None
    kernel = plan_kernel_for(algorithm, n, t)
    if kernel is None:
        return None
    if validate:
        problems = validate_scenario(
            scenario,
            t=t,
            allow_pending=(RoundModel(model) is RoundModel.RWS),
            horizon=max_rounds,
        )
        if problems:
            return None

    states = [PlanState() for _ in range(n)]
    hooks: list[tuple] = []
    slots: list[tuple[int, int]] = []
    program: list[tuple[tuple, tuple]] = []
    decisions: dict[int, int] = {}
    rounds_executed = 0

    for round_index in range(1, max_rounds + 1):
        hooks.append(
            (
                "round_start",
                round_index,
                tuple(
                    pid
                    for pid in range(n)
                    if scenario.alive_at_start(pid, round_index)
                ),
            )
        )

        # Send phase: pid order, broadcast recipient order, crash filter.
        sender_decided = [state.decided for state in states]
        sent: list[tuple[int, int]] = []
        for pid in range(n):
            if not scenario.alive_at_start(pid, round_index):
                continue
            if not kernel.sends(pid, states[pid]):
                continue
            for recipient in range(n):
                if scenario.sends_reach(pid, recipient, round_index):
                    sent.append((pid, recipient))

        # Delivery phase: send order, pending-message filter.
        withheld = frozenset(
            pair for pair in sent if scenario.withholds(*pair, round_index)
        )
        recv: list[list[int]] = [[] for _ in range(n)]
        for sender, recipient in sent:
            if (sender, recipient) not in withheld:
                recv[recipient].append(sender)
        hooks.append(("round_msgs", round_index, tuple(sent), withheld))

        # Transition phase: crash events, kernel transitions, decides.
        unions_ops: list[tuple[int, tuple[int, ...]]] = []
        decide_ops: list[tuple[int, int, str, int]] = []
        for pid in range(n):
            crash = scenario.crash_of(pid)
            if crash is not None and crash.round == round_index:
                hooks.append(
                    ("crash", pid, round_index, crash.applies_transition)
                )
            if not scenario.alive_at_end(pid, round_index):
                continue
            if not scenario.alive_at_start(pid, round_index):
                continue
            unions, decide = kernel.transition(
                pid, states[pid], recv[pid], sender_decided
            )
            if unions:
                unions_ops.append((pid, unions))
            if decide is not None and pid not in decisions:
                slot = len(slots)
                slots.append((pid, round_index))
                decisions[pid] = round_index
                op, src = decide
                decide_ops.append((slot, pid, op, src))
                hooks.append(("decide", slot, pid, round_index))
        program.append((tuple(unions_ops), tuple(decide_ops)))
        rounds_executed = round_index

        if not run_all_rounds and all(
            kernel.halted(pid, states[pid])
            for pid in range(n)
            if scenario.alive_at_start(pid, round_index + 1)
        ):
            break

    for pid in range(n):
        if scenario.alive_at_start(pid, rounds_executed + 1) and kernel.halted(
            pid, states[pid]
        ):
            hooks.append(("halt", pid, rounds_executed))

    latency: int | None = 0
    for pid in scenario.correct:
        round_of = decisions.get(pid)
        if round_of is None:
            latency = None
            break
        latency = max(latency, round_of)

    plan = GroupPlan(
        algorithm=algorithm,
        n=n,
        t=t,
        kind=kernel.kind,
        hooks=tuple(hooks),
        decide_slots=tuple(slots),
        program=tuple(program),
        num_rounds=rounds_executed,
        decision_rounds=tuple(sorted(decisions.items())),
        latency=latency,
    )
    if len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
        _PLAN_CACHE.clear()
    _PLAN_CACHE[key] = plan
    return plan
