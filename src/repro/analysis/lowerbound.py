"""Mechanical reproduction of the RWS ``Λ >= 2`` lower bound.

The paper (Section 5.3, citing the companion paper [7]) states: for
``n >= 3`` there is no uniform consensus algorithm in RWS in which all
correct processes decide at round 1 of all failure-free runs; hence
every RWS algorithm has ``Λ >= 2``, against ``Λ(A1) = 1`` in RS.

The executable counterpart, for any concrete candidate algorithm:

1. decide whether the candidate *has* the round-1 property (every
   failure-free run, over every initial configuration, has all correct
   processes deciding at round 1);
2. if it does, exhaustively search the RWS adversary space for a
   uniform-consensus violation, which by the theorem must exist.

:func:`round_one_survey` applies this to a pool of candidates; that no
candidate survives is the experiment-shaped form of the impossibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.consensus.spec import SpecViolation, check_uniform_consensus_run
from repro.rounds.algorithm import RoundAlgorithm
from repro.rounds.enumeration import all_scenarios, all_value_assignments
from repro.rounds.executor import RoundModel, execute
from repro.rounds.scenario import FailureScenario


@dataclass
class RoundOneVerdict:
    """Outcome of the two-stage check for one candidate."""

    algorithm: str
    has_round_one_property: bool
    violation: SpecViolation | None
    runs_checked: int

    @property
    def refuted(self) -> bool:
        """True when the candidate has the property and breaks the spec —
        i.e. when it confirms the lower bound."""
        return self.has_round_one_property and self.violation is not None

    def describe(self) -> str:
        if not self.has_round_one_property:
            return (
                f"{self.algorithm}: no round-1 property (Λ >= 2 by itself)"
            )
        if self.violation is None:
            return (
                f"{self.algorithm}: round-1 property and no violation found "
                f"over {self.runs_checked} runs — WOULD CONTRADICT the "
                "lower bound"
            )
        return (
            f"{self.algorithm}: round-1 property, refuted — {self.violation}"
        )


def _has_round_one_property(
    algorithm: RoundAlgorithm,
    n: int,
    t: int,
    domain: Sequence[Any],
    model: RoundModel = RoundModel.RWS,
) -> bool:
    """All correct processes decide at round 1 in every failure-free run."""
    scenario = FailureScenario.failure_free(n)
    for values in all_value_assignments(n, domain):
        run = execute(
            algorithm,
            values,
            scenario,
            t=t,
            model=model,
            max_rounds=t + 3,
            validate=False,
        )
        if run.latency() != 1:
            return False
    return True


def refute_round_one_decision(
    algorithm: RoundAlgorithm,
    n: int,
    t: int = 1,
    *,
    domain: Sequence[Any] = (0, 1),
    max_round: int | None = None,
    model: RoundModel = RoundModel.RWS,
) -> RoundOneVerdict:
    """Run the two-stage lower-bound check on one candidate.

    With ``model=RoundModel.RWS`` and ``t=1`` this is the paper's
    Section 5.3 bound; with ``model=RoundModel.RS`` and ``t>=2`` it is
    the companion-paper bound that uniform consensus cannot decide at
    round 1 of failure-free runs even in fully synchronous rounds —
    the sense in which "uniform consensus is harder than consensus".
    """
    has_property = _has_round_one_property(algorithm, n, t, domain, model)
    if not has_property:
        return RoundOneVerdict(
            algorithm=algorithm.name,
            has_round_one_property=False,
            violation=None,
            runs_checked=0,
        )
    crash_bound = max_round if max_round is not None else t + 1
    runs_checked = 0
    for values in all_value_assignments(n, domain):
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
                max_rounds=t + 3,
                validate=False,
            )
            runs_checked += 1
            violations = check_uniform_consensus_run(run)
            if violations:
                return RoundOneVerdict(
                    algorithm=algorithm.name,
                    has_round_one_property=True,
                    violation=violations[0],
                    runs_checked=runs_checked,
                )
    return RoundOneVerdict(
        algorithm=algorithm.name,
        has_round_one_property=True,
        violation=None,
        runs_checked=runs_checked,
    )


def round_one_survey(
    candidates: Iterable[RoundAlgorithm],
    n: int = 3,
    t: int = 1,
    *,
    domain: Sequence[Any] = (0, 1),
    model: RoundModel = RoundModel.RWS,
) -> list[RoundOneVerdict]:
    """Check every candidate; the lower bound predicts all are refuted
    (or lack the round-1 property to begin with)."""
    return [
        refute_round_one_decision(
            candidate, n, t, domain=domain, model=model
        )
        for candidate in candidates
    ]
