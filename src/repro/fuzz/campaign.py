"""The fuzz campaign: generate, execute, cross-check, shrink, report.

One campaign is four phases, all deterministic in ``(budget, seed)``:

1. **Generate** — ``budget`` cases round-robin over the selected
   engines, each from its :func:`~repro.runtime.space.derived_seed`
   stream (case ``i`` is the same no matter the budget or worker
   count).
2. **Execute** — one :class:`~repro.runtime.sweep.SweepRunner` pass
   over the whole case list (parallel; cached in the run directory's
   store with ``run_root``), then a second pass over the *twins* of
   every emulation case (the rounds engine under each case's induced
   scenario).
3. **Cross-check** — the per-case oracles of :mod:`repro.fuzz.oracles`
   plus two batch parity oracles over a fixed-size sample:
   ``jobs-parity`` (the sample's merged trace and folded metrics must
   be byte-identical between ``jobs=1`` and ``jobs=2``) and
   ``cache-parity`` (a cache-warm re-run against a temporary store
   must execute zero cells and reproduce the cold merged trace
   byte-for-byte).
4. **Shrink** — every failing case is reduced by
   :func:`repro.fuzz.shrink.shrink` (predicate: *any* per-case oracle
   still fails) and emitted as a replayable JSON counterexample that
   ``repro replay --repro FILE`` re-executes.
"""

from __future__ import annotations

import json
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Sequence

from repro.errors import ConfigurationError
from repro.fuzz.oracles import (
    OracleFailure,
    case_failures,
    run_case,
    twin_request,
)
from repro.obs.report import summarize_fuzz
from repro.fuzz.shrink import shrink
from repro.fuzz.strategies import (
    FUZZ_ENGINES,
    generate_case,
    mc_frontier_cases,
)
from repro.inject import active_injection
from repro.rounds.scenario import validate_scenario
from repro.runtime.cache import ResultCache
from repro.runtime.campaign import CampaignLeg
from repro.runtime.request import (
    ROUND_ENGINES,
    ExecutionRequest,
    ExecutionResult,
)
from repro.runtime.space import ScenarioSpace
from repro.runtime.sweep import SweepResult, SweepRunner
from repro.serialize import REPRO_KIND, REPRO_SCHEMA, scenario_from_dict

#: Cells sampled for the batch parity oracles (kept small: every cell
#: in the sample is re-executed twice more).
PARITY_SAMPLE = 8


@dataclass
class Counterexample:
    """One failing case, before and after shrinking."""

    original: ExecutionRequest
    failures: list[OracleFailure]
    shrunk: ExecutionRequest
    shrunk_failures: list[OracleFailure]
    shrink_attempts: int

    @property
    def oracles(self) -> list[str]:
        return [failure.oracle for failure in self.failures]

    def to_dict(self) -> dict:
        return {
            "kind": REPRO_KIND,
            "schema": REPRO_SCHEMA,
            "injected_bug": active_injection(),
            "oracles": self.oracles,
            "problems": [
                {"oracle": f.oracle, "problems": f.problems}
                for f in self.shrunk_failures or self.failures
            ],
            "request": self.shrunk.to_dict(),
            "original": self.original.to_dict(),
            "shrink_attempts": self.shrink_attempts,
        }

    def describe(self) -> str:
        lines = [
            f"{self.original.name}: FAILED "
            f"[{', '.join(self.oracles)}]"
        ]
        adversary = (
            self.shrunk.scenario.describe()
            if self.shrunk.scenario is not None
            else self.shrunk.pattern.describe()
        )
        lines.append(
            f"  shrunk to n={self.shrunk.n}, "
            f"{self.shrunk.engine}/{self.shrunk.algorithm}, "
            f"adversary: {adversary} "
            f"({self.shrink_attempts} attempts)"
        )
        for failure in self.shrunk_failures or self.failures:
            for problem in failure.problems:
                lines.append(f"  {failure.oracle}: {problem}")
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Everything one campaign established."""

    budget: int
    seed: int
    engines: tuple[str, ...]
    executed: int
    cached: int
    twins: int
    parity_cells: int = 0
    counterexamples: list[Counterexample] = field(default_factory=list)
    parity_problems: list[str] = field(default_factory=list)
    repro_files: list[str] = field(default_factory=list)
    #: The campaign's run directory (``runs/<run_id>``), when artifacts
    #: were requested.
    run_dir: str | None = None

    @property
    def ok(self) -> bool:
        return not self.counterexamples and not self.parity_problems

    def describe(self) -> str:
        lines = [
            f"fuzz: {self.budget} cases over {', '.join(self.engines)} "
            f"(seed {self.seed}); executed {self.executed}, "
            f"cached {self.cached}, twins {self.twins}"
        ]
        injected = active_injection()
        if injected is not None:
            lines.append(f"injected bug active: {injected}")
        if self.parity_problems:
            lines.append("parity oracles FAILED:")
            lines.extend(f"  {problem}" for problem in self.parity_problems)
        elif self.parity_cells:
            lines.append(
                f"parity oracles ok (jobs=1 vs jobs=2, cold vs warm cache "
                f"over {self.parity_cells} sampled cells)"
            )
        else:
            lines.append(
                "parity oracles skipped (no deterministic cells to sample)"
            )
        if self.counterexamples:
            lines.append(
                f"{len(self.counterexamples)} counterexample(s):"
            )
            lines.extend(ce.describe() for ce in self.counterexamples)
        else:
            lines.append("all per-case oracles ok")
        for path in self.repro_files:
            lines.append(f"wrote {path}")
        if self.run_dir:
            lines.append(
                f"run artifacts: {self.run_dir} (inspect with `repro report`)"
            )
        return "\n".join(lines)


def resolve_engines(names: Sequence[str]) -> tuple[str, ...]:
    """Expand CLI engine selectors into the fuzz-engine round-robin.

    ``all`` covers the four engines, ``rounds`` the round executor
    under both models.
    """
    engines: list[str] = []
    for name in names:
        if name == "all":
            engines.extend(FUZZ_ENGINES)
        elif name == "rounds":
            engines.extend(("rounds-rs", "rounds-rws"))
        elif name in FUZZ_ENGINES:
            engines.append(name)
        else:
            raise ConfigurationError(
                f"unknown engine {name!r}; choose from "
                f"{('all', 'rounds') + FUZZ_ENGINES}"
            )
    return tuple(dict.fromkeys(engines))


def generate_cases(
    budget: int, seed: int, engines: Sequence[str], *, max_n: int = 4
) -> list[ExecutionRequest]:
    """The campaign's deterministic case list, round-robin by engine."""
    return [
        generate_case(
            index, seed=seed, engine=engines[index % len(engines)], max_n=max_n
        )
        for index in range(budget)
    ]


def _twin_results(
    runner: SweepRunner,
    requests: Sequence[ExecutionRequest],
    results: Sequence[ExecutionResult],
) -> dict[str, ExecutionResult]:
    """Execute the rounds twin of every emulation cell, in one sweep.

    Cells whose induced scenario is missing or inadmissible get no
    twin: the rounds executor would (rightly) refuse such a scenario,
    and ``twin_oracle`` reports the inadmissibility from the result
    itself before ever looking for a twin.
    """
    twins: list[ExecutionRequest] = []
    owners: list[str] = []
    for request, result in zip(requests, results):
        if request.engine in ROUND_ENGINES:
            continue
        data = result.extra.get("induced_scenario")
        if data is None:
            continue
        try:
            induced = scenario_from_dict(data)
        except Exception:
            continue
        if validate_scenario(
            induced,
            t=request.t,
            allow_pending=(request.engine == "rws_on_sp"),
            horizon=request.max_rounds,
        ):
            continue
        twins.append(twin_request(request, induced))
        owners.append(request.name)
    if not twins:
        return {}
    sweep = runner.run(ScenarioSpace.explicit("fuzz-twins", twins))
    return dict(zip(owners, sweep.results))


def _parity_problems(sample: Sequence[ExecutionRequest]) -> list[str]:
    """The batch oracles: scheduling and caching must not change bytes.

    The cache oracle runs the sample cold and then warm against a
    temporary store of its own."""
    if not sample:
        return []
    problems: list[str] = []
    space = ScenarioSpace.explicit("fuzz-parity", list(sample))

    serial = SweepRunner(jobs=1, cache=None, check=False).run(space)
    parallel = SweepRunner(jobs=2, cache=None, check=False).run(space)
    problems.extend(_compare_sweeps("jobs-parity(1 vs 2)", serial, parallel))

    with TemporaryDirectory() as scratch:
        with closing(ResultCache(scratch)) as parity_cache:
            cold = SweepRunner(jobs=1, cache=parity_cache, check=False).run(space)
            warm = SweepRunner(jobs=1, cache=parity_cache, check=False).run(space)
    if warm.executed != 0:
        problems.append(
            f"cache-parity: warm re-run executed {warm.executed} "
            "cell(s); every cell should have been served from cache"
        )
    problems.extend(_compare_sweeps("cache-parity(cold vs warm)", cold, warm))
    return problems


def _compare_sweeps(
    label: str, left: SweepResult, right: SweepResult
) -> list[str]:
    problems: list[str] = []
    left_lines = list(left.merged_jsonl_lines())
    right_lines = list(right.merged_jsonl_lines())
    if left_lines != right_lines:
        index = next(
            (
                i
                for i, (a, b) in enumerate(zip(left_lines, right_lines))
                if a != b
            ),
            min(len(left_lines), len(right_lines)),
        )
        problems.append(
            f"{label}: merged traces differ at event {index} "
            f"({len(left_lines)} vs {len(right_lines)} events)"
        )
    if left.metrics.state() != right.metrics.state():
        problems.append(f"{label}: folded metrics states differ")
    return problems


def run_campaign(
    *,
    budget: int,
    seed: int,
    engines: Sequence[str] = ("all",),
    jobs: int = 1,
    out_dir: str | None = None,
    shrink_failures: bool = True,
    max_n: int = 4,
    run_root: str | None = None,
    frontier: str | None = None,
) -> FuzzReport:
    """Run one differential fuzzing campaign; see the module docstring.

    With ``run_root`` the campaign writes a content-addressed run
    directory under it (manifest, incremental ``metrics.jsonl``, final
    ``summary.json``), uses the run's own ``results/`` store as the
    execution cache — so a killed campaign re-invoked with the same
    parameters resumes, skipping every already-completed case — and
    finalizes with SLO verdicts.
    """
    if budget < 1:
        raise ConfigurationError("budget must be >= 1")
    if frontier is not None:
        # Seed every case from a saved model-checker frontier: the
        # stream samples exactly-known deep reachable states instead of
        # random adversaries (see strategies.mc_frontier_case).
        engine_list = ("mc-frontier",)
        requests = mc_frontier_cases(budget, seed, frontier)
    else:
        engine_list = resolve_engines(engines)
        requests = generate_cases(budget, seed, engine_list, max_n=max_n)

    leg = CampaignLeg(
        run_root,
        kind="fuzz",
        name=f"fuzz-{seed}",
        requests=requests,
        config={
            "budget": budget,
            "seed": seed,
            "engines": list(engine_list),
            "max_n": max_n,
            "frontier": frontier,
        },
    )
    with leg:
        sweep = SweepRunner(
            jobs=jobs, cache=leg.cache, check=False, on_run=leg.audit
        ).run(ScenarioSpace.explicit(f"fuzz-{seed}", requests), keys=leg.keys)

        # Twins share the run's result store and audit log (so a resumed
        # campaign skips them too); they are derived work, not planned
        # cells, so an unfinished run's progress count ignores them.
        twin_runner = SweepRunner(
            jobs=jobs, cache=leg.cache, check=False, on_run=leg.audit
        )
        twin_by_case = _twin_results(twin_runner, requests, sweep.results)

        counterexamples: list[Counterexample] = []
        for request, result in zip(requests, sweep.results):
            failures = case_failures(
                request, result, twin_result=twin_by_case.get(request.name)
            )
            if not failures:
                continue
            if shrink_failures:
                outcome = shrink(
                    request, lambda mutant: bool(run_case(mutant))
                )
                shrunk = outcome.request
                shrunk_failures = run_case(shrunk)
                attempts = outcome.attempts
            else:
                shrunk, shrunk_failures, attempts = request, failures, 0
            counterexamples.append(
                Counterexample(
                    original=request,
                    failures=failures,
                    shrunk=shrunk,
                    shrunk_failures=shrunk_failures,
                    shrink_attempts=attempts,
                )
            )

        parity_sample = requests[:PARITY_SAMPLE]
        parity = _parity_problems(parity_sample)

        report = FuzzReport(
            budget=budget,
            seed=seed,
            engines=engine_list,
            executed=sweep.executed,
            cached=sweep.cached,
            twins=len(twin_by_case),
            parity_cells=len(parity_sample),
            counterexamples=counterexamples,
            parity_problems=parity,
            run_dir=None if leg.path is None else str(leg.path),
        )
        if out_dir is not None and counterexamples:
            directory = Path(out_dir)
            directory.mkdir(parents=True, exist_ok=True)
            for ce in counterexamples:
                path = directory / f"{ce.original.name}.json"
                path.write_text(
                    json.dumps(
                        ce.to_dict(), indent=2, sort_keys=True, default=repr
                    )
                    + "\n",
                    encoding="utf-8",
                )
                report.repro_files.append(str(path))
        leg.finalize(
            lambda run_dir: summarize_fuzz(
                run_dir, report, sweep, completed_before=leg.completed_before
            )
        )
    return report


def load_counterexample(path: str) -> tuple[ExecutionRequest, dict]:
    """Parse a ``repro fuzz`` counterexample file.

    Returns the (shrunk) request to re-execute plus the full document;
    raises :class:`ConfigurationError` on anything that is not a
    counterexample file.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict) or data.get("kind") != REPRO_KIND:
        raise ConfigurationError(
            f"{path} is not a {REPRO_KIND} file (kind="
            f"{data.get('kind') if isinstance(data, dict) else None!r})"
        )
    try:
        request = ExecutionRequest.from_dict(data["request"])
    except Exception as exc:
        raise ConfigurationError(
            f"{path}: malformed request: {exc}"
        ) from exc
    return request, data
