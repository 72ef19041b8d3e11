"""Biely's SDD hardness constructions as named checker fixtures.

The Theorem 3.1 impossibility quadruple — four two-process runs whose
receiver cannot tell ``r0`` from ``r0'`` (nor ``r1`` from ``r1'``) yet
would have to decide ``0`` in one pair and ``1`` in the other — exists
in the repo as :func:`repro.sdd.impossibility.sdd_quadruple_traces`.
This module registers each SP candidate's quadruple as a *named
counterexample fixture* and classifies it: a fixture is a **genuine
indistinguishability witness** when (a) the receiver's local views
coincide within both pairs (the premise, checked on the recorded
traces with :func:`repro.obs.diff.view_divergence`, the located form
of :func:`repro.obs.diff.local_view` equality), and (b) the
candidate actually violates the SDD specification on at least one run
(the conclusion, via :func:`repro.sdd.impossibility.refute_sdd_candidate`).

``repro check --sdd-fixture NAME``,
``repro mc indistinguishability --fixture NAME`` and
``repro diff --sdd NAME`` surface the classification;
``tests/test_mc_fixtures.py`` pins every registered candidate to
``genuine=True``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.obs.diff import Divergence, view_divergence
from repro.sdd import (
    SP_CANDIDATE_FACTORIES,
    refute_sdd_candidate,
    sdd_quadruple_traces,
)
from repro.sdd.spec import RECEIVER

#: The indistinguishable pairs of the quadruple.
FIXTURE_PAIRS = (("r0", "r0'"), ("r1", "r1'"))


def sdd_fixture_names() -> list[str]:
    """The registered fixture names (one per SP candidate receiver)."""
    return sorted(SP_CANDIDATE_FACTORIES)


@dataclass
class SddClassification:
    """The checker's judgement of one SDD quadruple fixture."""

    candidate: str
    #: pair label -> where the receiver's views split (``None``: they
    #: coincide).
    divergences: dict[str, Divergence | None] = field(default_factory=dict)
    #: run name -> the receiver's decision in that run.
    decisions: dict[str, object] = field(default_factory=dict)
    #: the candidate violates the SDD spec somewhere in the quadruple.
    refuted: bool = False
    problems: list[str] = field(default_factory=list)

    @property
    def indistinguishable(self) -> dict[str, bool]:
        """pair label -> the receiver's views coincide."""
        return {
            label: divergence is None
            for label, divergence in self.divergences.items()
        }

    @property
    def genuine(self) -> bool:
        """True when the fixture carries the full Theorem 3.1 argument."""
        return (
            all(self.indistinguishable.values())
            and len(self.indistinguishable) == len(FIXTURE_PAIRS)
            and self.refuted
            and not self.problems
        )

    def describe(self) -> str:
        lines = [f"sdd fixture {self.candidate!r}:"]
        for pair, ok in sorted(self.indistinguishable.items()):
            lines.append(
                f"  {pair}: "
                + ("receiver views indistinguishable" if ok else "views DIVERGE")
            )
        lines.append(
            "  spec violated somewhere in the quadruple: "
            + ("yes" if self.refuted else "NO")
        )
        lines.extend(f"  {problem}" for problem in self.problems)
        lines.append(
            "  => genuine indistinguishability witness"
            if self.genuine
            else "  => NOT a genuine witness"
        )
        return "\n".join(lines)


def classify_sdd_quadruple(candidate: str) -> SddClassification:
    """Classify one named fixture; see the module docstring."""
    factory = SP_CANDIDATE_FACTORIES.get(candidate)
    if factory is None:
        raise ConfigurationError(
            f"unknown SDD candidate {candidate!r}; choose from "
            f"{sdd_fixture_names()}"
        )
    classification = SddClassification(candidate=candidate)
    traces = sdd_quadruple_traces(factory)
    for left, right in FIXTURE_PAIRS:
        divergence = view_divergence(
            traces[left].events, traces[right].events, RECEIVER
        )
        label = f"{left} ~ {right}"
        classification.divergences[label] = divergence
        if divergence is not None:
            classification.problems.append(
                f"{label}: {divergence.describe()}"
            )
    refutation = refute_sdd_candidate(factory, candidate)
    classification.decisions = dict(refutation.decisions)
    classification.refuted = refutation.refuted
    if not refutation.refuted:
        classification.problems.append(
            "candidate satisfied the SDD spec on every run of the "
            "quadruple (Theorem 3.1 says that cannot happen)"
        )
    return classification
