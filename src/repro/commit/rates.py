"""Commit-rate measurement: the SDD advantage, quantified.

Experiment E3's harness: over the full bounded adversary space of each
model, run a commit algorithm on the all-YES configuration (the
interesting one — mixed votes must abort everywhere) and count how
often the correct survivors COMMIT.  The paper's qualitative claim
becomes the quantitative shape: synchronous commit's rate strictly
exceeds the safe RWS algorithm's, while the optimistic rule in RWS is
outright unsafe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.commit.spec import COMMIT, check_nbac_run
from repro.consensus.spec import SpecViolation
from repro.rounds.algorithm import RoundAlgorithm
from repro.rounds.enumeration import all_scenarios
from repro.rounds.executor import RoundModel, execute


@dataclass
class CommitRateReport:
    """Commit statistics of one algorithm over one model's run space."""

    algorithm: str
    model: str
    n: int
    t: int
    runs: int = 0
    commits: int = 0
    aborts: int = 0
    undecided: int = 0
    violations: list[SpecViolation] = field(default_factory=list)

    @property
    def commit_rate(self) -> float:
        return self.commits / self.runs if self.runs else 0.0

    @property
    def safe(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        safety = "safe" if self.safe else f"{len(self.violations)} violations"
        return (
            f"{self.algorithm} in {self.model}: commit rate "
            f"{self.commits}/{self.runs} = {self.commit_rate:.2%} "
            f"({safety}; {self.undecided} undecided runs)"
        )


def commit_rate(
    algorithm: RoundAlgorithm,
    model: RoundModel,
    *,
    n: int = 3,
    t: int = 1,
    votes: tuple[bool, ...] | None = None,
    max_round: int | None = None,
    horizon: int | None = None,
) -> CommitRateReport:
    """Measure the commit rate of ``algorithm`` over the model's runs.

    A run counts as a commit when every correct process decided COMMIT.
    NBAC violations are collected alongside — a high commit rate is
    meaningless if bought with safety violations, which is precisely
    the optimistic-in-RWS story.
    """
    values = votes if votes is not None else tuple([True] * n)
    crash_bound = max_round if max_round is not None else t + 1
    run_horizon = horizon if horizon is not None else t + 3
    report = CommitRateReport(
        algorithm=algorithm.name, model=model.value, n=n, t=t
    )
    for scenario in all_scenarios(
        n,
        t,
        max_round=crash_bound,
        allow_pending=(model is RoundModel.RWS),
    ):
        run = execute(
            algorithm,
            values,
            scenario,
            t=t,
            model=model,
            max_rounds=run_horizon,
            validate=False,
        )
        report.runs += 1
        if run.latency() is None:
            report.undecided += 1
        elif {run.decision_value(p) for p in scenario.correct} == {COMMIT}:
            report.commits += 1
        else:
            report.aborts += 1
        report.violations.extend(check_nbac_run(run))
    return report


def compare_commit_rates(
    *,
    n: int = 3,
    t: int = 1,
    votes: tuple[bool, ...] | None = None,
) -> dict[str, CommitRateReport]:
    """The E3 head-to-head: SyncCommit/RS vs the two RWS rules vs 2PC."""
    from repro.commit.algorithms import (
        OptimisticFDCommit,
        PerfectFDCommit,
        SynchronousCommit,
        TwoPhaseCommit,
    )

    return {
        "SyncCommit@RS": commit_rate(
            SynchronousCommit(), RoundModel.RS, n=n, t=t, votes=votes
        ),
        "P-Commit@RWS": commit_rate(
            PerfectFDCommit(), RoundModel.RWS, n=n, t=t, votes=votes
        ),
        "OptimisticP-Commit@RWS": commit_rate(
            OptimisticFDCommit(), RoundModel.RWS, n=n, t=t, votes=votes
        ),
        "2PC@RS": commit_rate(
            TwoPhaseCommit(), RoundModel.RS, n=n, t=t, votes=votes
        ),
    }
