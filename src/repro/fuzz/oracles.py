"""Differential oracles: what "the engines agree" means, executably.

Each per-case oracle takes an :class:`ExecutionRequest` plus its
:class:`ExecutionResult` and returns a list of problem strings (empty
when the oracle holds):

* ``trace-check`` — the PR-2 trace oracle (model invariants, detector
  axioms, consensus) over the cell's event trace, via the sweep
  machinery's :func:`~repro.runtime.sweep.check_cell`.
* ``emulation-twin`` — the Section-4 refinement claim.  An emulation
  result carries the *induced* round scenario of its step-level run
  (``result.extra["induced_scenario"]``); that scenario must be
  admissible in the emulated round model, and the round executor run
  under it (the cell's *twin*) must reach exactly the same decisions.
  An emulation whose step run realises adversary behaviour the round
  model forbids — or whose decisions the round engine cannot
  reproduce — fails here.
* ``replay`` — determinism of the rounds engine: re-executing the
  scenario reconstructed from the trace must reproduce the event
  stream byte-for-byte (timestamps included, thanks to the logical
  clock).

The batch parity oracles (``jobs-parity``, ``cache-parity``) live in
:mod:`repro.fuzz.campaign`: they quantify over a *set* of cells, not
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.replay import replay_events
from repro.rounds.scenario import FailureScenario, validate_scenario
from repro.runtime.harness import execute_request
from repro.runtime.registry import make_algorithm
from repro.runtime.request import (
    ROUND_ENGINES,
    ExecutionRequest,
    ExecutionResult,
)
from repro.runtime.sweep import check_cell
from repro.serialize import scenario_from_dict


@dataclass
class OracleFailure:
    """One oracle's verdict on one failing case."""

    case: str
    oracle: str
    problems: list[str] = field(default_factory=list)

    def describe(self) -> str:
        lines = [f"{self.case}: {self.oracle} FAILED"]
        lines.extend(f"  {problem}" for problem in self.problems)
        return "\n".join(lines)


def induced_model(engine: str) -> str:
    """The round model an emulation engine realises."""
    return "RS" if engine == "rs_on_ss" else "RWS"


def twin_request(
    request: ExecutionRequest, induced: FailureScenario
) -> ExecutionRequest:
    """The rounds-engine twin of an emulation cell.

    Same algorithm, values and horizon; the adversary is the induced
    round scenario the emulated step run actually realised.  Safe
    algorithms must reach consensus here, so the twin asserts it.
    """
    return ExecutionRequest(
        name=f"{request.name}-twin",
        engine="rounds",
        algorithm=request.algorithm,
        values=request.values,
        t=request.t,
        model=induced_model(request.engine),
        scenario=induced,
        max_rounds=request.max_rounds,
    )


def check_oracle(
    request: ExecutionRequest, result: ExecutionResult
) -> list[str]:
    """The trace oracle over one cell (``trace-check``)."""
    verdict = check_cell(request, result)
    return [] if verdict.ok else verdict.problems()


def twin_oracle(
    request: ExecutionRequest,
    result: ExecutionResult,
    twin_result: ExecutionResult | None = None,
) -> list[str]:
    """The emulation↔rounds differential (``emulation-twin``).

    ``twin_result`` may be supplied when the campaign already executed
    the twin through the sweep runner; otherwise the twin runs
    in-process here (the shrinker's path).  Only the step-kernel
    emulations carry an induced scenario; the rounds engine has no twin
    and a live run's crash pattern is wall-clock timing, which no
    logical scenario reconstructs, so both are vacuously clean here.
    """
    if request.engine not in ("rs_on_ss", "rws_on_sp"):
        return []
    data = result.extra.get("induced_scenario")
    if data is None:
        return [
            "emulation result carries no induced scenario "
            "(extra['induced_scenario'] missing)"
        ]
    induced = scenario_from_dict(data)
    model = induced_model(request.engine)
    problems = [
        f"induced scenario inadmissible in {model}: {problem}"
        for problem in validate_scenario(
            induced,
            t=request.t,
            allow_pending=(model == "RWS"),
            horizon=request.max_rounds,
        )
    ]
    if problems:
        # An inadmissible scenario has no well-defined twin run.
        return problems
    if twin_result is None:
        twin_result = execute_request(twin_request(request, induced))
    if twin_result.decisions != result.decisions:
        problems.append(
            "decisions diverge from the rounds twin under the induced "
            f"scenario [{induced.describe()}]: emulation="
            f"{_fmt_decisions(result.decisions)} "
            f"rounds={_fmt_decisions(twin_result.decisions)}"
        )
    problems.extend(
        f"twin trace: {problem}"
        for problem in check_oracle(twin_request(request, induced), twin_result)
    )
    return problems


def replay_oracle(
    request: ExecutionRequest, result: ExecutionResult
) -> list[str]:
    """Byte-exact deterministic replay of a rounds cell (``replay``)."""
    if request.engine not in ROUND_ENGINES:
        return []
    try:
        # No max_rounds override: the replay must re-run exactly the
        # rounds the trace shows, so early-quiescent originals (the
        # executor stops once every alive process halted) compare
        # against an equally short replay.
        report = replay_events(
            make_algorithm(request.algorithm),
            request.values,
            result.events,
            t=request.t,
            model=request.model,
        )
    except ValueError as exc:
        return [f"replay rejected the trace: {exc}"]
    if report.exact:
        return []
    return [line.strip() for line in report.describe().splitlines()[1:]]


def case_failures(
    request: ExecutionRequest,
    result: ExecutionResult,
    *,
    twin_result: ExecutionResult | None = None,
) -> list[OracleFailure]:
    """Every per-case oracle's verdict on one executed cell."""
    failures = []
    for oracle, problems in (
        ("trace-check", check_oracle(request, result)),
        ("emulation-twin", twin_oracle(request, result, twin_result)),
        ("replay", replay_oracle(request, result)),
    ):
        if problems:
            failures.append(
                OracleFailure(case=request.name, oracle=oracle, problems=problems)
            )
    return failures


def run_case(request: ExecutionRequest) -> list[OracleFailure]:
    """Execute one case in-process and apply every per-case oracle.

    This is the shrinker's predicate: cheap, serial, no cache (an
    active bug injection is folded into cache keys anyway, but the
    shrinker probes many throwaway mutants that would only churn the
    cache directory).
    """
    result = execute_request(request)
    return case_failures(request, result)


def _fmt_decisions(decisions: dict[int, tuple[int, Any]]) -> str:
    if not decisions:
        return "{}"
    return (
        "{"
        + ", ".join(
            f"p{pid}:(r{entry[0]},{entry[1]})"
            for pid, entry in sorted(decisions.items())
        )
        + "}"
    )
