"""Exact latency measures by exhaustive run-space exploration."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.consensus.spec import (
    SpecViolation,
    check_uniform_consensus_run,
)
from repro.errors import ExecutionError
from repro.rounds.algorithm import RoundAlgorithm
from repro.rounds.enumeration import (
    all_scenarios,
    all_value_assignments,
    random_scenario,
)
from repro.rounds.executor import RoundModel, RoundRun, execute


def explore_runs(
    algorithm: RoundAlgorithm,
    n: int,
    t: int,
    model: RoundModel,
    *,
    domain: Sequence[Any] = (0, 1),
    max_round: int | None = None,
    horizon: int | None = None,
    sample: int | None = None,
    rng: random.Random | None = None,
) -> Iterator[RoundRun]:
    """Yield runs of ``algorithm`` over the bounded adversary space.

    Exhaustive by default: the cartesian product of every initial
    configuration over ``domain`` with every admissible scenario whose
    crashes happen within ``max_round`` (default ``t + 1``) rounds.
    With ``sample`` set, draws that many (configuration, scenario)
    pairs at random instead — for spaces too large to enumerate.

    ``horizon`` bounds executed rounds (default ``t + 3``, enough for
    every algorithm in this library to terminate).
    """
    crash_bound = max_round if max_round is not None else t + 1
    run_horizon = horizon if horizon is not None else t + 3
    allow_pending = model is RoundModel.RWS

    if sample is None:
        cells = (
            (values, scenario)
            for values in all_value_assignments(n, domain)
            for scenario in all_scenarios(
                n, t, max_round=crash_bound, allow_pending=allow_pending
            )
        )
    else:
        if rng is None:
            rng = random.Random(0)
        cells = (
            (
                tuple(rng.choice(list(domain)) for _ in range(n)),
                random_scenario(
                    n,
                    t,
                    max_round=crash_bound,
                    allow_pending=allow_pending,
                    rng=rng,
                ),
            )
            for _ in range(sample)
        )
    for values, scenario in cells:
        yield execute(
            algorithm,
            values,
            scenario,
            t=t,
            model=model,
            max_rounds=run_horizon,
            validate=False,
        )


@dataclass
class LatencyProfile:
    """All of Section 5.2's latency measures for one algorithm/model."""

    algorithm: str
    model: str
    n: int
    t: int
    lat: int
    lat_by_config: dict[tuple, int]
    Lat: int
    Lat_by_failures: dict[int, int]
    Lambda: int
    runs_explored: int

    def describe(self) -> str:
        lat_f = ", ".join(
            f"Lat(A,{f})={v}" for f, v in sorted(self.Lat_by_failures.items())
        )
        return (
            f"{self.algorithm} in {self.model} (n={self.n}, t={self.t}): "
            f"lat={self.lat}, Lat={self.Lat}, Λ={self.Lambda} [{lat_f}] "
            f"over {self.runs_explored} runs"
        )


class _LatencyFold:
    """The running ``lat`` / ``lat_by_config`` / ``Lat(·, f)`` over the
    decided runs fed to it — Section 5.2's measures, folded once."""

    def __init__(self, t: int) -> None:
        self.t = t
        self.lat: int | None = None
        self.lat_by_config: dict[tuple, int] = {}
        self.lat_by_failures: dict[int, int] = {}

    def add(self, run: RoundRun, latency: int) -> None:
        by_config, by_failures = self.lat_by_config, self.lat_by_failures
        if run.values not in by_config or latency < by_config[run.values]:
            by_config[run.values] = latency
        if self.lat is None or latency < self.lat:
            self.lat = latency
        # A run with f crashes belongs to Run(A, S, f') for every
        # f' >= f, so failure-free runs feed every Lat(A, f).
        for f in range(run.scenario.num_failures(), self.t + 1):
            if f not in by_failures or latency > by_failures[f]:
                by_failures[f] = latency

    def profile(
        self, algorithm: RoundAlgorithm, model: RoundModel, n: int, runs: int
    ) -> LatencyProfile:
        if self.lat is None:
            raise ExecutionError("no runs produced a complete decision")
        return LatencyProfile(
            algorithm=algorithm.name,
            model=model.value,
            n=n,
            t=self.t,
            lat=self.lat,
            lat_by_config=self.lat_by_config,
            Lat=max(self.lat_by_config.values()),
            Lat_by_failures=self.lat_by_failures,
            Lambda=self.lat_by_failures.get(0, 0),
            runs_explored=runs,
        )


def latency_profile(
    algorithm: RoundAlgorithm,
    n: int,
    t: int,
    model: RoundModel,
    *,
    domain: Sequence[Any] = (0, 1),
    max_round: int | None = None,
    horizon: int | None = None,
) -> LatencyProfile:
    """Compute lat, Lat, Lat(·, f) and Λ exactly over the bounded space.

    Raises :class:`~repro.errors.ExecutionError` if some run leaves a
    correct process undecided — a termination failure (or a horizon too
    short), which would make the latency measures meaningless.
    """
    fold = _LatencyFold(t)
    runs_explored = 0
    for run in explore_runs(
        algorithm,
        n,
        t,
        model,
        domain=domain,
        max_round=max_round,
        horizon=horizon,
    ):
        runs_explored += 1
        latency = run.latency()
        if latency is None:
            raise ExecutionError(
                f"{algorithm.name} in {model.value}: correct process "
                f"undecided (values={run.values}, "
                f"scenario={run.scenario.describe()})"
            )
        fold.add(run, latency)
    return fold.profile(algorithm, model, n, runs_explored)


@dataclass
class VerificationReport:
    """Outcome of checking an algorithm against a spec on a run space."""

    algorithm: str
    model: str
    n: int
    t: int
    runs_checked: int
    violations: list[SpecViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def first_violations(self, k: int = 3) -> list[str]:
        return [str(v) for v in self.violations[:k]]

    def describe(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.violations)} violations"
        return (
            f"{self.algorithm} in {self.model} (n={self.n}, t={self.t}): "
            f"{verdict} over {self.runs_checked} runs"
        )


def verify_algorithm(
    algorithm: RoundAlgorithm,
    n: int,
    t: int,
    model: RoundModel,
    *,
    checker: Callable[[RoundRun], list[SpecViolation]] = check_uniform_consensus_run,
    domain: Sequence[Any] = (0, 1),
    max_round: int | None = None,
    horizon: int | None = None,
    sample: int | None = None,
    rng: random.Random | None = None,
    stop_after: int | None = None,
) -> VerificationReport:
    """Check every explored run against a problem specification.

    ``stop_after`` short-circuits once that many violations were found
    (useful when a single counterexample suffices).
    """
    report = VerificationReport(
        algorithm=algorithm.name,
        model=model.value,
        n=n,
        t=t,
        runs_checked=0,
    )
    for run in explore_runs(
        algorithm,
        n,
        t,
        model,
        domain=domain,
        max_round=max_round,
        horizon=horizon,
        sample=sample,
        rng=rng,
    ):
        report.runs_checked += 1
        report.violations.extend(checker(run))
        if stop_after is not None and len(report.violations) >= stop_after:
            break
    return report


def profile_and_verify(
    algorithm: RoundAlgorithm,
    n: int,
    t: int,
    model: RoundModel,
    *,
    checker: Callable[[RoundRun], list[SpecViolation]] = check_uniform_consensus_run,
    domain: Sequence[Any] = (0, 1),
    max_round: int | None = None,
    horizon: int | None = None,
) -> tuple[LatencyProfile, VerificationReport]:
    """Compute the latency profile and the spec report in one exploration.

    Exploring the run space dominates both computations, so large
    exhaustive sweeps (e.g. n=4, t=2) should use this instead of
    calling :func:`latency_profile` and :func:`verify_algorithm`
    separately.  Semantics match the two separate calls exactly, except
    that a termination failure is reported as a violation rather than
    raising (the profile then excludes the undecided run from latency
    minima/maxima).
    """
    fold = _LatencyFold(t)
    report = VerificationReport(
        algorithm=algorithm.name, model=model.value, n=n, t=t, runs_checked=0
    )
    for run in explore_runs(
        algorithm, n, t, model,
        domain=domain, max_round=max_round, horizon=horizon,
    ):
        report.runs_checked += 1
        report.violations.extend(checker(run))
        latency = run.latency()
        if latency is not None:
            fold.add(run, latency)
    return fold.profile(algorithm, model, n, report.runs_checked), report
