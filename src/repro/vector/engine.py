"""The columnar batch engine behind ``engine="vector"``.

Execution of a batch group splits into three phases:

1. **Plan** (:mod:`repro.vector.plan`) — one value-free run of the
   round executor per distinct ``(algorithm, n, t, model, scenario,
   horizon)`` group, yielding the exact observer-hook sequence and the
   batched value program.  Memoized, so a thousand-cell value sweep
   over one adversary plans once.
2. **Value kernel** (this module) — the whole batch's decision values
   in one pass: initial values become bitmasks over each cell's sorted
   value domain (plain ``int``s, so a domain may be any width),
   ``W``-set unions are bitwise ORs, and ``min(W)`` is a lowest-set-bit
   read.  A1 needs no masks at all: its decisions are initial values
   picked by plan-determined indices.
3. **Template** — every cell's result references the group's shared
   :class:`~repro.obs.template.TraceTemplate` (the value-free event
   log, whose fold is the metrics state) together with its own decide
   values; the per-cell event list is materialized only if a consumer
   reads it, and is then
   *byte-identical* to the object engine's (the decide ``value`` field
   is the only value-dependent byte in a round trace).

Cells the kernel cannot take — unregistered algorithms, value domains
with ``None``/NaN/cross-type-equal members, rejected scenarios, unknown
engine params — transparently fall back to the object executor, which
also reproduces exact error behaviour.  The object engine stays alive
as the differential-fuzzing twin; the replay oracle re-executes every
vector trace on it byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.obs.events import Observer
from repro.obs.profile import profiled
from repro.obs.template import TraceTemplate
from repro.runtime.harness import HARNESSES
from repro.runtime.request import ExecutionRequest, ExecutionResult
from repro.vector.kernels import DECIDE_MIN, PLAN_KERNELS
from repro.vector.plan import GroupPlan, build_plan

#: Engine params the planner understands; anything else falls back to
#: the object executor (which raises on genuinely unknown keywords).
_PLAN_PARAMS = frozenset({"validate", "run_all_rounds"})


@dataclass
class VectorRun:
    """A vector-engine run, shaped like a ``RoundRun`` for summaries."""

    decisions: dict[int, tuple[int, Any]]
    num_rounds: int
    latency_value: int | None

    def latency(self) -> int | None:
        return self.latency_value


@dataclass
class FallbackRun:
    """An object-engine run where the kernel declined the cell, tagged
    with why.  Exposes the ``RoundRun`` summary surface, so harnesses
    treat it like any run; the reason becomes the per-cell
    ``extra["vector_fallback"]`` telemetry campaign summaries report —
    deliberately outside the determinism contract (events and metrics
    stay byte-identical to the object engine's)."""

    run: Any
    reason: str

    @property
    def decisions(self) -> dict[int, tuple[int, Any]]:
        return self.run.decisions

    def latency(self) -> int | None:
        return self.run.latency()

    @property
    def num_rounds(self) -> int:
        return self.run.num_rounds


#: The fallback reasons per-cell telemetry may carry.
FALLBACK_UNSUPPORTED = "unsupported-algorithm"
FALLBACK_PARAMS = "unsupported-params"
FALLBACK_PLAN = "plan-refused"
FALLBACK_DOMAIN = "value-domain"


# ---------------------------------------------------------------------------
# Plan resolution and per-cell admissibility
# ---------------------------------------------------------------------------


def plan_for_request(request: ExecutionRequest) -> GroupPlan | None:
    """The request's group plan, or ``None`` for object-engine fallback."""
    params = request.param_dict()
    if set(params) - _PLAN_PARAMS:
        return None
    if request.scenario is None or request.model not in ("RS", "RWS"):
        return None
    return build_plan(
        request.algorithm,
        request.n,
        request.t,
        request.model,
        request.scenario,
        request.max_rounds,
        run_all_rounds=bool(params.get("run_all_rounds", False)),
        validate=bool(params.get("validate", True)),
    )


def cell_domain(values: Sequence[Any]) -> list[Any] | None:
    """The cell's sorted value domain, or ``None`` when min-parity with
    the object engine cannot be guaranteed.

    Rejected: unhashable or unsortable values, ``None`` (an undecided
    marker to ``decision_of``), NaN (unordered), and cross-type equal
    members (``0`` vs ``False``) whose surviving representative depends
    on set-construction order.
    """
    try:
        distinct = set(values)
        domain = sorted(distinct)
        typed = {(type(value), value) for value in values}
    except TypeError:
        return None
    for value in distinct:
        if value is None or value != value:
            return None
    if len(typed) != len(distinct):
        return None
    return domain


def admit(
    request: ExecutionRequest,
) -> tuple[GroupPlan, list[Any] | None] | str:
    """The one admissibility decision: ``(plan, domain)`` when the
    kernel takes the cell (``domain`` is ``None`` for a ``"pick"``
    plan, which needs no masks), else the fallback reason."""
    plan = plan_for_request(request)
    if plan is None:
        if request.algorithm not in PLAN_KERNELS:
            return FALLBACK_UNSUPPORTED
        if set(request.param_dict()) - _PLAN_PARAMS:
            return FALLBACK_PARAMS
        return FALLBACK_PLAN
    if plan.kind == "pick":
        # A1 decides initial values verbatim; only ``None`` (the object
        # engine's undecided marker) breaks decide-event parity.
        if any(value is None for value in request.values):
            return FALLBACK_DOMAIN
        return plan, None
    domain = cell_domain(request.values)
    if domain is None:
        return FALLBACK_DOMAIN
    return plan, domain


# ---------------------------------------------------------------------------
# Value kernel
# ---------------------------------------------------------------------------


def run_value_kernel(
    plan: GroupPlan,
    values_list: Sequence[Sequence[Any]],
    domains: Sequence[list[Any] | None],
) -> list[tuple[Any, ...]]:
    """Decide values for every cell, one tuple per cell in slot order."""
    if plan.kind == "pick":
        # Per decide slot, the pid whose initial value is decided.
        sources = [
            src for _, decide_ops in plan.program for _, _, _, src in decide_ops
        ]
        return [
            tuple(values[src] for src in sources) for values in values_list
        ]
    out: list[tuple[Any, ...]] = []
    for values, domain in zip(values_list, domains):
        index = {value: bit for bit, value in enumerate(domain)}
        W = [1 << index[value] for value in values]
        dec: list[Any] = [None] * plan.n
        for unions_ops, decide_ops in plan.program:
            if unions_ops:
                new_W = W[:]
                for j, senders in unions_ops:
                    mask = W[j]
                    for i in senders:
                        mask |= W[i]
                    new_W[j] = mask
                W = new_W
            for _slot, j, op, src in decide_ops:
                if op == DECIDE_MIN:
                    mask = W[j]
                    dec[j] = domain[(mask & -mask).bit_length() - 1]
                else:  # DECIDE_ADOPT
                    dec[j] = dec[src]
        out.append(tuple(dec[pid] for pid, _ in plan.decide_slots))
    return out


# ---------------------------------------------------------------------------
# Execution entry points
# ---------------------------------------------------------------------------


def execute_vector_request(
    request: ExecutionRequest, observer: Observer | None
) -> VectorRun | FallbackRun:
    """One cell on the vector engine, streaming events to ``observer``;
    a declined cell runs on the object engine (the ``rounds`` harness)
    instead.  Both returns expose ``decisions`` / ``latency()`` /
    ``num_rounds``."""
    admitted = admit(request)
    if isinstance(admitted, str):
        return FallbackRun(
            HARNESSES["rounds"].execute(request, observer), admitted
        )
    plan, domain = admitted
    decide_values = run_value_kernel(plan, [request.values], [domain])[0]
    if observer is not None:
        plan.replay(observer, decide_values)
    return VectorRun(
        decisions=plan.decisions(decide_values),
        num_rounds=plan.num_rounds,
        latency_value=plan.latency,
    )


def execute_vector_batch(
    requests: Sequence[ExecutionRequest],
) -> list[ExecutionResult | None]:
    """Execute vector-engine cells batched by group, in input order.

    Cells sharing a group plan run through the value kernel in one
    batched call and get the group's template plus their own decide
    values — no per-cell event is built until a consumer reads one.
    Distinct adversaries often leave the same trace (a crash after the
    last round anyone listens, say), so the results cite one
    :class:`~repro.obs.template.TraceTemplate` per content *digest*,
    not per plan, and every per-template analysis downstream runs once
    per distinct trace.  The instances are this call's own: a
    template's memo lives exactly as long as the results citing it.
    A cell the kernel declines comes back ``None``: the caller
    (:func:`repro.runtime.harness.execute_batch`) runs it through
    ``execute_request``, whose vector harness falls back per cell.
    Results are byte-identical to ``execute_request`` on every cell.
    """
    with profiled("vector.execute_batch"):
        results: list[ExecutionResult | None] = [None] * len(requests)
        groups: dict[int, tuple[GroupPlan, list[int], list[Any]]] = {}
        templates: dict[str, TraceTemplate] = {}
        for index, request in enumerate(requests):
            admitted = admit(request)
            if isinstance(admitted, str):
                continue
            plan, domain = admitted
            _, members, domains = groups.setdefault(id(plan), (plan, [], []))
            members.append(index)
            domains.append(domain)
        for plan, members, domains in groups.values():
            decided = run_value_kernel(
                plan, [requests[index].values for index in members], domains
            )
            digest = plan.template.digest
            template = templates.get(digest)
            if template is None:
                template = templates[digest] = plan.template.fresh()
            for index, decide_values in zip(members, decided):
                results[index] = ExecutionResult(
                    name=requests[index].name,
                    request_key=requests[index].cache_key(),
                    events=template.fill(decide_values),
                    decisions=plan.decisions(decide_values),
                    latency=plan.latency,
                    num_rounds=plan.num_rounds,
                    extra={},
                )
    return results
