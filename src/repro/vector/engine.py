"""The columnar batch engine behind ``engine="vector"``.

Execution of a batch group splits into three phases:

1. **Plan** (:mod:`repro.vector.plan`) — one value-free symbolic run
   per distinct ``(algorithm, n, t, model, scenario, horizon)`` group,
   yielding the exact observer-hook sequence and the batched value
   program.  Memoized, so a thousand-cell value sweep over one
   adversary plans once.
2. **Value kernel** (this module) — the whole batch's decision values
   in one pass: initial values become bitmasks over each cell's sorted
   value domain, ``W``-set unions are bitwise ORs (numpy ``(B, n)``
   ``uint64`` columns when available, plain ``int`` lists otherwise),
   and ``min(W)`` is a lowest-set-bit read.  A1 needs no arrays at all:
   its decisions are initial values picked by plan-determined indices.
3. **Template** — every cell's result references the group's shared
   :class:`~repro.obs.template.TraceTemplate` (event log and metrics
   state) together with its own decide values; the per-cell event list
   is materialized only if a consumer reads it, and is then
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

from repro.obs.events import (
    CompositeObserver,
    EventLog,
    Observer,
    logical_clock,
)
from repro.obs.metrics import MetricsObserver, MetricsRegistry
from repro.obs.profile import profiled
from repro.obs.template import TraceTemplate
from repro.rounds.executor import RoundModel
from repro.rounds.executor import execute as execute_rounds
from repro.runtime.request import (
    ExecutionRequest,
    ExecutionResult,
    batch_cache_keys,
)
from repro.vector.backend import backend_name, numpy_module
from repro.vector.kernels import DECIDE_MIN, DECIDE_VALUE
from repro.vector.plan import GroupPlan, build_plan

#: Widest value domain the uint64 numpy columns can hold; wider groups
#: run on the python backend's unbounded ints.
MAX_NUMPY_DOMAIN = 64

#: Engine params the planner understands; anything else falls back to
#: the object executor (which raises on genuinely unknown keywords).
_PLAN_PARAMS = frozenset({"validate", "run_all_rounds"})

#: Trace templates per plan (plans are memoized upstream, so identity
#: keying is stable within a cache generation).
_TEMPLATE_CACHE: dict[int, tuple[GroupPlan, TraceTemplate]] = {}
_TEMPLATE_CACHE_MAX = 512


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
    ``extra["vector_fallback"]`` telemetry campaign summaries report."""

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


def _plan_fallback_reason(request: ExecutionRequest) -> str:
    """Why :func:`plan_for_request` returned ``None`` for this cell."""
    from repro.runtime.registry import has_vector_kernel

    if not has_vector_kernel(request.algorithm):
        return FALLBACK_UNSUPPORTED
    if set(request.param_dict()) - _PLAN_PARAMS:
        return FALLBACK_PARAMS
    return FALLBACK_PLAN


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


def _pick_values_ok(values: Sequence[Any]) -> bool:
    """A1 decides initial values verbatim; only ``None`` (the object
    engine's undecided marker) breaks decide-event parity."""
    return not any(value is None for value in values)


# ---------------------------------------------------------------------------
# Value kernels
# ---------------------------------------------------------------------------


def _pick_sources(plan: GroupPlan) -> list[int]:
    """Per decide slot, the pid whose initial value is decided (A1)."""
    sources = [0] * len(plan.decide_slots)
    for _, decide_ops in plan.program:
        for slot, _pid, op, src in decide_ops:
            assert op == DECIDE_VALUE
            sources[slot] = src
    return sources


def _run_pick_kernel(
    plan: GroupPlan, values_list: Sequence[Sequence[Any]]
) -> list[tuple[Any, ...]]:
    sources = _pick_sources(plan)
    return [
        tuple(values[src] for src in sources) for values in values_list
    ]


def _run_set_kernel_python(
    plan: GroupPlan,
    values_list: Sequence[Sequence[Any]],
    domains: Sequence[list[Any]],
) -> list[tuple[Any, ...]]:
    out: list[tuple[Any, ...]] = []
    n = plan.n
    for values, domain in zip(values_list, domains):
        index = {value: bit for bit, value in enumerate(domain)}
        W = [1 << index[value] for value in values]
        dec: list[Any] = [None] * n
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


def _run_set_kernel_numpy(
    plan: GroupPlan,
    values_list: Sequence[Sequence[Any]],
    domains: Sequence[list[Any]],
    np,
) -> list[tuple[Any, ...]]:
    batch = len(values_list)
    n = plan.n
    rows = []
    for values, domain in zip(values_list, domains):
        index = {value: bit for bit, value in enumerate(domain)}
        rows.append([1 << index[value] for value in values])
    W = np.array(rows, dtype=np.uint64)
    dec_idx = np.zeros((batch, n), dtype=np.int64)
    zero = np.uint64(0)
    one = np.uint64(1)
    for unions_ops, decide_ops in plan.program:
        if unions_ops:
            new_W = W.copy()
            for j, senders in unions_ops:
                mask = W[:, j].copy()
                for i in senders:
                    mask |= W[:, i]
                new_W[:, j] = mask
            W = new_W
        for _slot, j, op, src in decide_ops:
            if op == DECIDE_MIN:
                column = W[:, j]
                lsb = column & (zero - column)
                # popcount(lsb - 1) is the exact lowest-set-bit index.
                dec_idx[:, j] = np.bitwise_count(lsb - one)
            else:  # DECIDE_ADOPT
                dec_idx[:, j] = dec_idx[:, src]
    return [
        tuple(
            domains[b][int(dec_idx[b, pid])] for pid, _ in plan.decide_slots
        )
        for b in range(batch)
    ]


def run_value_kernel(
    plan: GroupPlan,
    values_list: Sequence[Sequence[Any]],
    domains: Sequence[list[Any]] | None,
) -> list[tuple[Any, ...]]:
    """Decide values for every cell, one tuple per cell in slot order."""
    if plan.kind == "pick":
        return _run_pick_kernel(plan, values_list)
    assert domains is not None
    np = numpy_module()
    if (
        np is not None
        and backend_name() == "numpy"
        and all(len(domain) <= MAX_NUMPY_DOMAIN for domain in domains)
    ):
        return _run_set_kernel_numpy(plan, values_list, domains, np)
    return _run_set_kernel_python(plan, values_list, domains)


# ---------------------------------------------------------------------------
# Trace materialization
# ---------------------------------------------------------------------------


def replay_plan(
    plan: GroupPlan,
    observer: Observer,
    decide_values: Sequence[Any],
) -> None:
    """Stream the plan's hook sequence into ``observer``.

    Emits exactly the calls the object executor would make — a
    round's traffic through the same two round hooks, so causal
    observers pair sends with deliveries identically on both engines.
    """
    for hook in plan.hooks:
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


def template_for(plan: GroupPlan) -> TraceTemplate:
    """The group's shared trace template (events, decide positions,
    metrics state), built by replaying the plan once with no values."""
    cached = _TEMPLATE_CACHE.get(id(plan))
    if cached is not None and cached[0] is plan:
        return cached[1]
    log = EventLog(clock=logical_clock())
    registry = MetricsRegistry()
    placeholder = [None] * len(plan.decide_slots)
    replay_plan(
        plan, CompositeObserver(log, MetricsObserver(registry)), placeholder
    )
    template = TraceTemplate(
        log.events,
        [
            idx
            for idx, event in enumerate(log.events)
            if event.kind == "decide"
        ],
        registry.state(),
    )
    if len(_TEMPLATE_CACHE) >= _TEMPLATE_CACHE_MAX:
        _TEMPLATE_CACHE.clear()
    _TEMPLATE_CACHE[id(plan)] = (plan, template)
    return template


def _decisions_of(
    plan: GroupPlan, decide_values: Sequence[Any]
) -> dict[int, tuple[int, Any]]:
    return {
        pid: (round_index, decide_values[slot])
        for slot, (pid, round_index) in enumerate(plan.decide_slots)
    }


def _template_result(
    request: ExecutionRequest,
    plan: GroupPlan,
    decide_values: tuple[Any, ...],
    request_key: str,
) -> ExecutionResult:
    """A kernel cell: the group template plus this cell's decide values.
    No per-cell event is built until a consumer reads one."""
    template = template_for(plan)
    return ExecutionResult(
        name=request.name,
        request_key=request_key,
        events=template.fill(decide_values),
        metrics=template.copy_metrics(),
        decisions=_decisions_of(plan, decide_values),
        latency=plan.latency,
        num_rounds=plan.num_rounds,
        extra={},
    )


# ---------------------------------------------------------------------------
# Execution entry points
# ---------------------------------------------------------------------------


def _execute_object(
    request: ExecutionRequest, observer: Observer | None
) -> Any:
    """The object-engine twin of a vector cell (fallback + oracle)."""
    # Imported here, not at module top: the registry registers the
    # vector kernel table, so a module-level import would be circular.
    from repro.runtime.registry import make_algorithm

    return execute_rounds(
        make_algorithm(request.algorithm),
        request.values,
        request.scenario,
        t=request.t,
        model=RoundModel(request.model),
        max_rounds=request.max_rounds,
        observer=observer,
        **request.param_dict(),
    )


def _object_result(
    request: ExecutionRequest, reason: str
) -> ExecutionResult:
    """A fallback cell under the standard instrumentation.

    ``reason`` lands in ``extra["vector_fallback"]`` — per-cell
    telemetry only, deliberately outside the determinism contract
    (events and metrics stay byte-identical to the object engine's).
    """
    log = EventLog(clock=logical_clock())
    registry = MetricsRegistry()
    run = _execute_object(
        request, CompositeObserver(log, MetricsObserver(registry))
    )
    return ExecutionResult(
        name=request.name,
        request_key=request.cache_key(),
        events=list(log.events),
        metrics=registry.state(),
        decisions=dict(run.decisions),
        latency=run.latency(),
        num_rounds=run.num_rounds,
        extra={"vector_fallback": reason},
    )


def execute_vector_request(
    request: ExecutionRequest, observer: Observer | None
) -> Any:
    """One cell on the vector engine, streaming events to ``observer``.

    Returns a :class:`VectorRun` (or the fallback's ``RoundRun`` —
    both expose ``decisions`` / ``latency()`` / ``num_rounds``).
    """
    plan = plan_for_request(request)
    if plan is None:
        return FallbackRun(
            _execute_object(request, observer),
            _plan_fallback_reason(request),
        )
    if plan.kind == "pick":
        if not _pick_values_ok(request.values):
            return FallbackRun(
                _execute_object(request, observer), FALLBACK_DOMAIN
            )
        domains = None
    else:
        domain = cell_domain(request.values)
        if domain is None:
            return FallbackRun(
                _execute_object(request, observer), FALLBACK_DOMAIN
            )
        domains = [domain]
    decide_values = run_value_kernel(plan, [request.values], domains)[0]
    if observer is not None:
        replay_plan(plan, observer, decide_values)
    return VectorRun(
        decisions=_decisions_of(plan, decide_values),
        num_rounds=plan.num_rounds,
        latency_value=plan.latency,
    )


def execute_vector_batch(
    requests: Sequence[ExecutionRequest],
) -> list[ExecutionResult]:
    """Execute vector-engine cells batched by group, in input order.

    Cells sharing a group plan run through the value kernel in one
    batched call; inadmissible cells fall back to the object engine
    individually.  Results are byte-identical to
    :func:`repro.runtime.harness.execute_request` on every cell.
    """
    with profiled("vector.execute_batch"):
        results: list[ExecutionResult | None] = [None] * len(requests)
        groups: dict[int, tuple[GroupPlan, list[int]]] = {}
        domains: dict[int, list[Any] | None] = {}
        keys = batch_cache_keys(requests)
        for index, request in enumerate(requests):
            plan = plan_for_request(request)
            if plan is None:
                results[index] = _object_result(
                    request, _plan_fallback_reason(request)
                )
                continue
            if plan.kind == "pick":
                if not _pick_values_ok(request.values):
                    results[index] = _object_result(
                        request, FALLBACK_DOMAIN
                    )
                    continue
                domains[index] = None
            else:
                domain = cell_domain(request.values)
                if domain is None:
                    results[index] = _object_result(
                        request, FALLBACK_DOMAIN
                    )
                    continue
                domains[index] = domain
            _, members = groups.setdefault(id(plan), (plan, []))
            members.append(index)
        for plan, members in groups.values():
            values_list = [requests[index].values for index in members]
            group_domains = (
                None
                if plan.kind == "pick"
                else [domains[index] for index in members]
            )
            decided = run_value_kernel(plan, values_list, group_domains)
            for index, decide_values in zip(members, decided):
                results[index] = _template_result(
                    requests[index], plan, decide_values, keys[index]
                )
    final = [result for result in results if result is not None]
    assert len(final) == len(requests)
    return final
