"""The checker's orchestration: explore, execute, judge, witness.

:func:`check` ties the subsystem together:

1. **Plan** the frontier for the task — the exhaustive reduced
   schedule set (:func:`repro.mc.explore.explore`), the failure-free Λ
   matrix, or the emulation grid — reified as a scenario space.
2. **Execute** it through one :class:`~repro.runtime.sweep.SweepRunner`
   (parallel, cached, resumable): with ``run_root`` the checker opens
   a ``kind="sweep"`` run directory, so an interrupted checking run
   resumes, and a re-run recomputes the verdict with ``executed == 0``.
3. **Cross-check** every schedule leaf's *predicted* decisions (the
   explorer steps algorithm transitions itself) against the engine's
   — the exploration is under differential test on every run; a
   divergence voids the exhaustive claim and is reported as its own
   refutation.
4. **Judge** the property over the executed cells and, for a
   ``REFUTED`` verdict, reduce the first witness through the fuzz
   shrinker (:func:`still_fails_for` is the property-specific
   predicate) and emit replayable witness documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import TYPE_CHECKING, Any, Callable

from repro import obs
from repro.errors import ConfigurationError
from repro.mc.explore import explore
from repro.mc.properties import (
    PROPERTIES,
    PropertyOutcome,
    Violation,
    cell_property_problems,
    default_lambda_bound,
    evaluate_property,
    parse_bound,
)
from repro.mc.space import (
    GRID_ENGINES,
    frontier_space,
    grid_space,
    lambda_space,
)
from repro.mc.verdict import Verdict, witness_document
from repro.runtime.campaign import CampaignLeg
from repro.runtime.harness import execute_request
from repro.runtime.request import ROUND_ENGINES
from repro.runtime.sweep import SweepRunner

if TYPE_CHECKING:
    from repro.mc.explore import Exploration
    from repro.runtime.request import ExecutionRequest
    from repro.runtime.space import ScenarioSpace
    from repro.runtime.sweep import SweepResult

#: Witnesses embedded per REFUTED verdict (the first is shrunk).
MAX_WITNESSES = 3

#: Algorithms defined only for specific ``t`` (the CLI clamps with a
#: warning; the checker itself refuses, keeping verdicts honest).
ALGORITHM_T_CONSTRAINTS: dict[str, int] = {"a1": 1}


@dataclass(frozen=True)
class McTask:
    """One checking task: a property over a bounded parameter box.

    An omitted ``horizon`` resolves here to ``max(3, t + 1)``: the
    algorithms under check decide by round ``t + 1``, and a shorter
    bound would refute termination, and vacuously uphold agreement, on
    runs it cut off.
    """

    property_name: str
    algorithm: str
    n: int = 3
    t: int = 1
    model: str = "RS"
    horizon: int | None = None
    engine: str = "rounds"
    reduce: bool = True
    jobs: int = 1
    run_root: str | None = None
    bound: str | None = None
    by_round: int | None = None
    shrink_witness: bool = True

    def __post_init__(self) -> None:
        if self.horizon is None:
            object.__setattr__(self, "horizon", max(3, self.t + 1))

    def validate(self) -> None:
        if self.property_name not in PROPERTIES:
            raise ConfigurationError(
                f"unknown property {self.property_name!r}; choose from "
                f"{sorted(PROPERTIES)}"
            )
        if self.engine not in ROUND_ENGINES + GRID_ENGINES:
            raise ConfigurationError(
                f"unknown mc engine {self.engine!r}; choose from "
                f"{ROUND_ENGINES + GRID_ENGINES}"
            )
        required_t = ALGORITHM_T_CONSTRAINTS.get(self.algorithm)
        if required_t is not None and self.t != required_t:
            raise ConfigurationError(
                f"{self.algorithm} is defined for t={required_t} only "
                f"(got t={self.t})"
            )
        if self.bound is not None:
            parse_bound(self.bound)


@dataclass
class McOutcome:
    """Everything one :func:`check` call established."""

    task: McTask
    verdict: Verdict
    sweep: SweepResult
    exploration: Exploration | None = None
    run_dir: str | None = None
    witness_requests: list[ExecutionRequest] = field(default_factory=list)


def still_fails_for(
    task: McTask,
) -> Callable[[ExecutionRequest], bool]:
    """The shrinker's predicate: does the mutant still refute the property?

    Executes the mutant in-process (no cache — shrinking probes many
    throwaway requests) and re-evaluates the *property*, not the fuzz
    oracles, so the shrunk witness still refutes exactly what the
    verdict claims.
    """

    def predicate(mutant: ExecutionRequest) -> bool:
        result = execute_request(mutant)
        return bool(
            cell_property_problems(
                task.property_name,
                mutant,
                result,
                t=task.t,
                horizon=task.horizon,
                by_round=task.by_round,
            )
        )

    return predicate


def _plan(task: McTask) -> tuple[ScenarioSpace, Exploration | None, str]:
    """``(space, exploration, scope)`` for one task — the one frontier
    dispatcher."""
    if task.engine in GRID_ENGINES:
        space = grid_space(
            task.algorithm,
            n=task.n,
            t=task.t,
            horizon=task.horizon,
            engine=task.engine,
        )
        return space, None, "grid"
    if task.property_name == "lambda":
        space = lambda_space(
            task.algorithm,
            n=task.n,
            t=task.t,
            model=task.model,
            horizon=task.horizon,
            engine=task.engine,
        )
        return space, None, "exhaustive"
    exploration = explore(
        task.algorithm,
        n=task.n,
        t=task.t,
        model=task.model,
        horizon=task.horizon,
        reduce=task.reduce,
    )
    return frontier_space(exploration, engine=task.engine), exploration, "exhaustive"


def _prediction_divergences(
    exploration: Exploration | None,
    space: ScenarioSpace,
    sweep: SweepResult,
) -> list[Violation]:
    """Explorer-vs-engine decision divergences (empty = consistent)."""
    if exploration is None:
        return []
    violations = []
    for leaf, request, result in zip(
        exploration.leaves, space.requests, sweep.results
    ):
        if leaf.decisions != result.decisions:
            violations.append(
                Violation(
                    cell=request.name,
                    problems=[
                        "exploration predicted decisions "
                        f"{leaf.decisions!r} but the {request.engine} "
                        f"engine produced {result.decisions!r}"
                    ],
                    request=request,
                )
            )
    return violations


def _replayable(request: ExecutionRequest) -> ExecutionRequest:
    """The witness form of a cell: replay oracles assert consensus."""
    if request.engine in ROUND_ENGINES:
        return dc_replace(request, check_consensus=True)
    return request


def _witnesses(
    task: McTask, outcome: PropertyOutcome
) -> tuple[list[dict[str, Any]], list[ExecutionRequest]]:
    """Witness documents for a REFUTED verdict, first one shrunk."""
    documents: list[dict[str, Any]] = []
    requests: list[ExecutionRequest] = []
    shrinkable = (
        task.shrink_witness
        and PROPERTIES[task.property_name].kind == "cell"
    )
    for index, violation in enumerate(outcome.violations[:MAX_WITNESSES]):
        if violation.request is None:
            continue
        original = violation.request
        shrunk = original
        problems = list(violation.problems)
        attempts = 0
        if index == 0 and shrinkable:
            # Only a REFUTED verdict gets here: a check that holds never
            # imports the fuzz shrinker.
            from repro.fuzz.shrink import shrink

            reduction = shrink(
                original, still_fails_for(task), max_attempts=200
            )
            shrunk = reduction.request
            attempts = reduction.attempts
            final = execute_request(shrunk)
            problems = cell_property_problems(
                task.property_name,
                shrunk,
                final,
                t=task.t,
                horizon=task.horizon,
                by_round=task.by_round,
            ) or problems
        documents.append(
            witness_document(
                property_name=task.property_name,
                original=_replayable(original),
                shrunk=_replayable(shrunk),
                problems=problems,
                shrink_attempts=attempts,
            )
        )
        requests.append(_replayable(shrunk))
    return documents, requests


def check(task: McTask, *, progress_stream: Any = None) -> McOutcome:
    """Run one checking task end to end; see the module docstring."""
    task.validate()
    space, exploration, scope = _plan(task)

    leg = CampaignLeg(
        task.run_root,
        kind="sweep",
        name=space.name,
        requests=space.requests,
        config={
            "space": space.name,
            "mode": "mc",
            "property": task.property_name,
        },
        label=f"mc:{task.property_name}",
        stream=progress_stream,
    )
    with leg:
        sweep = SweepRunner(
            jobs=task.jobs, cache=leg.cache, check=False, on_run=leg.on_run
        ).run(space, keys=leg.keys)
        pairs = list(zip(space.requests, sweep.results))
        divergences = _prediction_divergences(exploration, space, sweep)
        bound = task.bound
        if task.property_name == "lambda" and bound is None:
            bound = default_lambda_bound(task.algorithm, task.model, task.t)
        outcome = evaluate_property(
            task.property_name,
            pairs,
            t=task.t,
            horizon=task.horizon,
            bound=bound,
            by_round=task.by_round,
        )
        if divergences:
            # The engine contradicts the round semantics the exploration
            # stepped: the exhaustive claim is void, whatever the property
            # said, and the diverging cells are the witnesses.
            outcome = PropertyOutcome(
                holds=False, violations=divergences, details=outcome.details
            )

        # Verdict statistics are deterministic facts of the frontier — the
        # executed/cached split varies with cache warmth and lives on the
        # sweep, so a cold run and a resumed run agree byte-for-byte.
        stats: dict[str, Any] = {"cells": len(space.requests)}
        if exploration is not None:
            stats.update(exploration.stats.to_dict())

        documents: list[dict[str, Any]] = []
        witness_requests: list[ExecutionRequest] = []
        problems = [
            problem
            for violation in outcome.violations[:MAX_WITNESSES]
            for problem in violation.problems
        ]
        overflow = len(outcome.violations) - MAX_WITNESSES
        if overflow > 0:
            problems.append(f"... and {overflow} more violating cell(s)")
        if not outcome.holds:
            documents, witness_requests = _witnesses(task, outcome)

        verdict = Verdict(
            property_name=task.property_name,
            holds=outcome.holds,
            scope=scope,
            algorithm=task.algorithm,
            n=task.n,
            t=task.t,
            model=task.model if task.engine in ROUND_ENGINES else None,
            horizon=task.horizon,
            engine=task.engine,
            reduce=task.reduce,
            stats=stats,
            details=outcome.details,
            problems=problems,
            witnesses=documents,
        )

        # A sweep summary plus the verdict; repro.obs loads the summariser
        # on first use, so a check without a run directory never does.
        leg.finalize(
            lambda run_dir: {
                **obs.summarize_sweep(
                    run_dir, sweep, completed_before=leg.completed_before
                ),
                "mc": verdict.to_dict(),
            }
        )

    return McOutcome(
        task=task,
        verdict=verdict,
        sweep=sweep,
        exploration=exploration,
        run_dir=None if leg.path is None else str(leg.path),
        witness_requests=witness_requests,
    )
