"""Generate the EXPERIMENTS.md report from fresh experiment runs.

The repository's EXPERIMENTS.md is produced by this module (via
``python -m repro report``), so its paper-vs-measured verdicts are real
output rather than hand-maintained prose.
"""

from __future__ import annotations

from repro.core.experiments import ExperimentResult, run_all_experiments

_PREAMBLE = """# EXPERIMENTS — paper vs. measured

Every experiment from DESIGN.md's index, executed by
`python -m repro experiments` (quick parameterisation; `make
report-check` regenerates this file and compares it byte for byte).
The paper contains no numeric tables —
its figures are algorithm listings and its results are theorems and
latency equalities — so "reproducing a figure/table" here means:
implement the artefact, verify the stated property mechanically
(exhaustively for small n, randomized otherwise), and report the
measured value next to the claimed one.

This file is generated by `python -m repro report`; the verdicts below
are real output.
"""

_NOTES = """## Notes and observed deviations

* **E13 detection bound.** The paper quotes a Φ+1+Δ detection delay in
  the two-process SDD discussion. For the general n-process heartbeat
  construction (one send per step), the derived safe suspicion
  threshold is (n−1)(Φ+1)+Δ local steps, and a heartbeat already in
  flight at the crash can refresh the silence counter for up to Δ more
  observer steps, giving an end-to-end detection bound of
  (n−1)(Φ+1)+2Δ+1 observer steps. For n = 2 the threshold specialises
  to the paper's Φ+1+Δ.
* **F_OptFloodSet in RWS.** The paper only claims the WS variant for
  RWS; exhaustive search over n = 3, t = 1 finds the plain RS variant
  also safe there — an artefact of the fast path (a receiver of
  exactly n−t round-1 messages identifies the faulty set even under
  pending messages). We report it as measured; the paper makes no
  claim either way.
* **A1 in RWS fails plain consensus too.** Beyond the paper's uniform
  agreement counterexample (E9), enumeration finds RWS runs where two
  *correct* processes disagree under A1 (the crashing p1 partially
  delivers its round-2 report). The E14 witness for the
  consensus/uniform-consensus gap in RWS is therefore a separate
  algorithm (EagerFloodSetWS), which is consensus-safe by construction.
* **Impossibility results.** Theorem 3.1 and the companion-paper
  Λ ≥ 2 lower bound are universally quantified and cannot be "run";
  they are reproduced as (a) the proofs' own run constructions executed
  against concrete candidate algorithms, all refuted, and (b) exact Λ
  computations for every safe algorithm in the library (all ≥ 2 in
  RWS, vs Λ(A1) = 1 in RS). See DESIGN.md §3.
"""


def format_result(result: ExperimentResult) -> str:
    """One experiment as a markdown section."""
    lines = [
        f"## {result.exp_id} — {result.title}",
        "",
        f"*Paper claim.* {result.paper_claim}",
        "",
        f"*Measured.* {result.measured}",
        "",
        f"*Verdict.* {'PASS' if result.ok else 'FAIL'}",
        "",
    ]
    if result.details:
        lines.append("```")
        lines.extend(result.details)
        lines.extend(["```", ""])
    return "\n".join(lines)


def generate_report() -> str:
    """Run the whole suite and render the EXPERIMENTS.md content."""
    results = run_all_experiments()
    passed = sum(result.ok for result in results)
    sections = [
        _PREAMBLE,
        f"**Result: {passed}/{len(results)} experiments pass.**\n",
    ]
    sections.extend(format_result(result) for result in results)
    sections.append(_NOTES)
    return "\n".join(sections)


def write_report(path: str) -> int:
    """Generate the report into ``path``; returns the pass count."""
    content = generate_report()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
    return content.count("*Verdict.* PASS")
