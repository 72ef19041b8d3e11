"""Property evaluators: the paper's theorems as executable predicates.

Each registered property evaluates a frontier's executed cells — the
``(request, result)`` pairs a :class:`~repro.runtime.sweep.SweepRunner`
produced — and returns the violations it found.  Over an exhaustively
explored frontier an empty violation list is a *machine-checked
verdict*: the property holds on every admissible run of the bounded
space (``HOLDS(exhaustive)``); any violation yields a concrete witness
run (``REFUTED``).

Cell properties (agreement, uniform agreement, validity, termination)
judge each run in isolation; aggregate properties quantify over the
whole frontier — ``lambda`` is the paper's ``Λ(A) = Lat(A, 0)`` worst
case over the failure-free space, and ``indistinguishability`` is the
Theorem 3.1 transport: two runs giving a process the same local view
up to its decision (:func:`repro.obs.diff.local_view`) must extract
identical decisions from it.

The property ↔ theorem correspondence is tabulated in
``docs/paper_map.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.consensus import clauses
from repro.errors import ConfigurationError
from repro.runtime.request import ExecutionRequest, ExecutionResult

Pair = tuple[ExecutionRequest, ExecutionResult]


@dataclass
class Violation:
    """One run (or run pair) a property rejected."""

    cell: str
    problems: list[str]
    request: ExecutionRequest | None = None

    def describe(self) -> str:
        lines = [f"{self.cell}:"]
        lines.extend(f"  {problem}" for problem in self.problems)
        return "\n".join(lines)


@dataclass
class PropertyOutcome:
    """A property's judgement over one frontier."""

    holds: bool
    violations: list[Violation] = field(default_factory=list)
    details: dict[str, Any] = field(default_factory=dict)


def correct_pids(request: ExecutionRequest) -> tuple[int, ...]:
    if request.scenario is not None:
        return tuple(sorted(request.scenario.correct))
    return tuple(sorted(request.pattern.correct))


# -- cell properties ----------------------------------------------------------


def cell_property_problems(
    name: str,
    request: ExecutionRequest,
    result: ExecutionResult,
    *,
    t: int,
    horizon: int,
    by_round: int | None = None,
) -> list[str]:
    """One cell's problems under the cell property ``name`` (also the
    shrinker's lens): its clause of :mod:`repro.consensus.clauses` over
    the cell's decisions.

    The engines record a decision taken in a crash round with
    ``applies_transition`` too, so ``result.decisions`` is exactly the
    uniform-agreement quantification domain (paper Sec. 5).
    """
    prop = PROPERTIES.get(name)
    if prop is None or prop.kind != "cell":
        raise ConfigurationError(
            f"{name!r} is not a per-cell property; cannot evaluate one cell"
        )
    decisions, correct = result.decisions, correct_pids(request)
    if name == "termination":
        bound = _termination_bound(t, horizon, by_round)
        return [
            f"p{pid} decided in round {decisions[pid][0]} > bound {bound}"
            if pid in decisions
            else f"p{pid} never decided"
            for pid in clauses.termination(decisions, correct, bound)
        ]
    if name == "agreement":
        pids = clauses.agreement(decisions, correct)
        heading = "correct processes disagree"
    elif name == "uniform-agreement":
        pids = clauses.uniform_agreement(decisions)
        heading = "processes disagree (uniformly)"
    else:
        pids = clauses.validity(decisions, request.values)
        heading = (
            "decided value(s) outside the initial set "
            f"{sorted(set(request.values))}"
        )
    if not pids:
        return []
    return [
        f"{heading}: "
        + ", ".join(f"p{pid} -> {decisions[pid][1]!r}" for pid in pids)
    ]


def _termination_bound(t: int, horizon: int, by_round: int | None) -> int:
    """The termination bound: ``by_round``, else ``min(t + 1, horizon)``."""
    return by_round if by_round is not None else min(t + 1, horizon)


# -- aggregate properties -----------------------------------------------------


def parse_bound(bound: str) -> tuple[str, int]:
    """Parse a Λ bound spec (``'==1'``, ``'>=2'``, ``'<=3'``)."""
    for op in ("==", ">=", "<="):
        if bound.startswith(op):
            try:
                return op, int(bound[len(op) :])
            except ValueError:
                break
    raise ConfigurationError(
        f"malformed bound {bound!r} (want ==K, >=K or <=K)"
    )


def _bound_holds(op: str, value: int, limit: int) -> bool:
    if op == "==":
        return value == limit
    if op == ">=":
        return value >= limit
    return value <= limit


#: Per-algorithm default Λ bounds, straight from the paper: A1 achieves
#: ``Λ = 1`` in RS (Theorem 5.2); every safe RWS algorithm has
#: ``Λ >= 2`` (Section 5.3, via [7]); the FloodSet family decides in exactly
#: ``t + 1`` rounds, failure-free runs included.
def default_lambda_bound(algorithm: str, model: str, t: int) -> str | None:
    if algorithm == "a1":
        return "==1"
    if model == "RWS":
        return ">=2"
    if algorithm in ("floodset", "floodset-ws", "c-opt", "c-opt-ws"):
        return f"=={t + 1}"
    return None


def lambda_outcome(
    pairs: Sequence[Pair], *, bound: str | None
) -> PropertyOutcome:
    """``Λ = Lat(A, 0)``: the worst failure-free latency vs its bound.

    The frontier must be the full failure-free run set
    (:func:`repro.mc.space.lambda_space`); the observed worst case then
    *is* Λ, and the verdict compares it against the claimed bound.
    """
    violations: list[Violation] = []
    worst: int | None = None
    for request, result in pairs:
        if result.latency is None:
            violations.append(
                Violation(
                    cell=request.name,
                    problems=["failure-free run did not terminate"],
                    request=request,
                )
            )
            continue
        worst = (
            result.latency if worst is None else max(worst, result.latency)
        )
    details: dict[str, Any] = {"lambda": worst, "bound": bound}
    if violations:
        return PropertyOutcome(holds=False, violations=violations, details=details)
    if bound is not None and worst is not None:
        op, limit = parse_bound(bound)
        if not _bound_holds(op, worst, limit):
            worst_cells = [
                request.name
                for request, result in pairs
                if result.latency == worst
            ]
            violations.append(
                Violation(
                    cell=worst_cells[0],
                    problems=[
                        f"Λ = {worst} violates the bound {bound} "
                        f"(worst cells: {', '.join(worst_cells[:4])})"
                    ],
                    request=next(
                        request
                        for request, result in pairs
                        if result.latency == worst
                    ),
                )
            )
    return PropertyOutcome(
        holds=not violations, violations=violations, details=details
    )


def indistinguishability_outcome(pairs: Sequence[Pair]) -> PropertyOutcome:
    """Theorem 3.1 as a frontier invariant: equal views, equal decisions.

    For every correct process, runs are grouped by what the process
    knew when it decided: its :func:`repro.obs.diff.local_view` up to
    its first ``decide`` event, over the run's inputs.  Within a group
    the process's decision must be constant.  A conflict exhibits two
    runs the process cannot distinguish in which it nevertheless
    decides differently — exactly the contradiction shape the paper's
    impossibility arguments build.

    ``details`` counts the ``groups`` and the ``shared`` ones holding
    two runs or more — the only groups the property compares anything
    in.  A frontier reduced to one run per view (FloodSet's, whose
    decision round fixes the whole causal past) has ``shared == 0``.
    """
    from repro.obs.diff import local_view

    groups: dict[tuple[int, tuple], list[tuple[Any, ExecutionRequest]]] = {}
    for request, result in pairs:
        events = result.events
        for pid in correct_pids(request):
            entry = result.decisions.get(pid)
            if entry is None:
                continue
            decided_at = next(
                (
                    index
                    for index, event in enumerate(events)
                    if event.kind == "decide" and event.pid == pid
                ),
                None,
            )
            view = local_view(
                events, pid, upto=decided_at, inputs=request.values
            )
            groups.setdefault((pid, view), []).append((entry[1], request))
    violations = [
        Violation(
            cell=request.name,
            problems=[
                f"p{pid} has identical local views but decides "
                f"{first_value!r} in {first.name} vs {value!r} in "
                f"{request.name}"
            ],
            request=request,
        )
        for (pid, _), ((first_value, first), *rest) in groups.items()
        for value, request in rest
        if value != first_value
    ]
    return PropertyOutcome(
        holds=not violations,
        violations=violations,
        details={
            "groups": len(groups),
            "shared": sum(1 for members in groups.values() if len(members) > 1),
        },
    )


# -- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Property:
    """One checkable property: evaluator + its paper anchor."""

    name: str
    kind: str  # "cell" | "aggregate"
    doc: str
    theorem: str


PROPERTIES: dict[str, Property] = {
    prop.name: prop
    for prop in (
        Property(
            name="agreement",
            kind="cell",
            doc="no two correct processes decide differently",
            theorem="consensus spec, Sec. 2.2",
        ),
        Property(
            name="uniform-agreement",
            kind="cell",
            doc="no two processes decide differently, crashed included",
            theorem="uniform consensus, Sec. 5 (Theorems 5.1 and 5.2)",
        ),
        Property(
            name="validity",
            kind="cell",
            doc="every decided value is some process's initial value",
            theorem="consensus spec, Sec. 2.2",
        ),
        Property(
            name="termination",
            kind="cell",
            doc="every correct process decides within the round bound",
            theorem="FloodSet t+1 bound, Sec. 2.3",
        ),
        Property(
            name="lambda",
            kind="aggregate",
            doc="the failure-free worst-case latency Λ meets its bound",
            theorem="Theorem 5.2 (Λ(A1)=1) and Sec. 5.3 via [7] (Λ_RWS >= 2)",
        ),
        Property(
            name="indistinguishability",
            kind="aggregate",
            doc="equal local views imply equal decisions (Theorem 3.1)",
            theorem="Theorem 3.1",
        ),
    )
}


def evaluate_property(
    name: str,
    pairs: Sequence[Pair],
    *,
    t: int,
    horizon: int,
    bound: str | None = None,
    by_round: int | None = None,
) -> PropertyOutcome:
    """Judge one property over a frontier's executed cells."""
    if name not in PROPERTIES:
        raise ConfigurationError(
            f"unknown property {name!r}; choose from {sorted(PROPERTIES)}"
        )
    if name == "lambda":
        return lambda_outcome(pairs, bound=bound)
    if name == "indistinguishability":
        return indistinguishability_outcome(pairs)
    violations = []
    for request, result in pairs:
        problems = cell_property_problems(
            name, request, result, t=t, horizon=horizon, by_round=by_round
        )
        if problems:
            violations.append(
                Violation(cell=request.name, problems=problems, request=request)
            )
    details: dict[str, Any] = {"cells": len(pairs)}
    if name == "termination":
        details["by_round"] = _termination_bound(t, horizon, by_round)
    return PropertyOutcome(
        holds=not violations, violations=violations, details=details
    )
