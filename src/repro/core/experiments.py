"""The experiment registry: every paper claim as a runnable check.

Each experiment function reproduces one artefact of the paper (a
figure's algorithm, a theorem, a latency equality) and returns an
:class:`ExperimentResult` with the claim, the measurement, and a pass
verdict.  DESIGN.md's experiment index documents the mapping.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis import (
    latency_profile,
    latency_summary_table,
    format_table,
    profile_and_verify,
    refute_round_one_decision,
    verify_algorithm,
)
from repro.commit import (
    check_nbac_run,
    compare_commit_rates,
)
from repro.commit.algorithms import OptimisticFDCommit
from repro.consensus import (
    A1,
    COptFloodSet,
    COptFloodSetWS,
    EagerFloodSetWS,
    EarlyDecidingConsensus,
    EarlyDecidingUniformFloodSet,
    FloodSet,
    FloodSetWS,
    FOptFloodSet,
    FOptFloodSetWS,
    check_consensus_run,
    check_uniform_consensus_run,
    clauses,
)
from repro.consensus.candidates import ROUND_ONE_CANDIDATES
from repro.emulation import (
    check_emulated_round_synchrony,
    check_emulated_weak_round_synchrony,
    count_pending_messages,
    emulate_rs_on_ss,
    emulate_rws_on_sp,
    round_deadlines,
)
from repro.failures import (
    FailurePattern,
    TimeoutPerfectDetector,
    classify_history,
    detection_delays,
    detection_threshold,
    history_from_run,
    random_pattern,
)
from repro.models import SynchronousModel
from repro.rounds import RoundModel
from repro.runtime.harness import harness_for
from repro.runtime.registry import UNIFORM_CONSENSUS_ALGORITHMS, make_algorithm
from repro.runtime.space import named_cell
from repro.sdd import (
    SP_CANDIDATE_FACTORIES,
    check_sdd_run,
    refute_sdd_candidate,
    solve_sdd_ss,
)
from repro.workloads import adversarial_split


@dataclass
class ExperimentResult:
    """Paper claim vs measured outcome for one experiment."""

    exp_id: str
    title: str
    paper_claim: str
    measured: str
    ok: bool
    details: list[str] = field(default_factory=list)

    def describe(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        lines = [
            f"[{self.exp_id}] {self.title} — {verdict}",
            f"  paper:    {self.paper_claim}",
            f"  measured: {self.measured}",
        ]
        lines.extend(f"  {line}" for line in self.details)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# E1 / E2 / E3 — solvability: SDD and atomic commit
# ---------------------------------------------------------------------------


def experiment_e1() -> ExperimentResult:
    """SDD is solvable in SS within Φ+1+Δ receiver steps."""
    seeds = 25
    runs = 0
    failures: list[str] = []
    for seed in range(seeds):
        rng = random.Random(seed)
        for value in (0, 1):
            for phi, delta in ((1, 1), (2, 3)):
                for crashes in ({}, {0: 0}, {0: 1}, {0: rng.randint(1, 5)}):
                    pattern = FailurePattern.with_crashes(2, dict(crashes))
                    run = solve_sdd_ss(
                        value, pattern, phi=phi, delta=delta, rng=rng
                    )
                    verdict = check_sdd_run(run, value)
                    runs += 1
                    if not verdict.ok:
                        failures.append(verdict.describe())
    return ExperimentResult(
        exp_id="E1",
        title="SDD solvable in SS",
        paper_claim="p_j decides within Φ+1+Δ steps; validity whenever p_i "
        "was not initially crashed",
        measured=f"{runs} randomized SS runs, {len(failures)} violations",
        ok=not failures,
        details=failures[:3],
    )


def experiment_e2() -> ExperimentResult:
    """Theorem 3.1: every SP candidate falls to the run quadruple."""
    refutations = [
        refute_sdd_candidate(factory, name)
        for name, factory in SP_CANDIDATE_FACTORIES.items()
    ]
    all_refuted = all(r.refuted for r in refutations)
    return ExperimentResult(
        exp_id="E2",
        title="SDD unsolvable in SP (Theorem 3.1)",
        paper_claim="no algorithm solves SDD in SP tolerating one crash",
        measured=f"{len(refutations)} candidate receivers, all refuted: "
        f"{all_refuted}",
        ok=all_refuted,
        details=[r.describe().splitlines()[-1].strip() + f" ({r.candidate})"
                 for r in refutations],
    )


def experiment_e3() -> ExperimentResult:
    """Synchronous commit decides COMMIT strictly more often."""
    reports = compare_commit_rates(n=3, t=1)
    sync = reports["SyncCommit@RS"]
    safe = reports["P-Commit@RWS"]
    optimistic_safety = verify_algorithm(
        OptimisticFDCommit(),
        3,
        1,
        RoundModel.RWS,
        checker=check_nbac_run,
        domain=(False, True),
        stop_after=1,
    )
    gap_ok = sync.commit_rate > safe.commit_rate and sync.safe and safe.safe
    demo_ok = not optimistic_safety.ok  # the optimistic rule must break
    return ExperimentResult(
        exp_id="E3",
        title="Atomic commit: SS commits more often than SP",
        paper_claim="SS commit algorithms lead to COMMIT more often; the "
        "optimistic rule is unachievable in SP",
        measured=(
            f"all-YES commit rate: SyncCommit@RS {sync.commit_rate:.0%} vs "
            f"P-Commit@RWS {safe.commit_rate:.0%}; optimistic rule in RWS "
            f"violates commit validity: {not optimistic_safety.ok}"
        ),
        ok=gap_ok and demo_ok,
        details=[report.describe() for report in reports.values()],
    )


# ---------------------------------------------------------------------------
# E4–E9 — the algorithms of Figures 1–4
# ---------------------------------------------------------------------------


def experiment_e4() -> ExperimentResult:
    """FloodSet solves uniform consensus in RS in exactly t+1 rounds."""
    details: list[str] = []
    ok = True
    sweeps = [(3, 1), (4, 2)]
    for n, t in sweeps:
        profile, report = profile_and_verify(FloodSet(), n, t, RoundModel.RS)
        expected = t + 1
        case_ok = (
            report.ok and profile.Lat == expected and profile.lat == expected
        )
        ok = ok and case_ok
        details.append(
            f"n={n}, t={t}: safe={report.ok}, Lat={profile.Lat} "
            f"(expected {expected}), runs={profile.runs_explored}"
        )
    return ExperimentResult(
        exp_id="E4",
        title="FloodSet in RS (Figure 1)",
        paper_claim="uniform consensus in t+1 rounds, all runs",
        measured="; ".join(details),
        ok=ok,
    )


def experiment_e5() -> ExperimentResult:
    """Pending messages break FloodSet in RWS; FloodSetWS repairs it."""
    broken = verify_algorithm(
        FloodSet(), 3, 1, RoundModel.RWS, stop_after=1
    )
    fixed = verify_algorithm(FloodSetWS(), 3, 1, RoundModel.RWS)
    ok = (not broken.ok) and fixed.ok
    details = []
    if broken.violations:
        details.append("FloodSet counterexample: " + str(broken.violations[0]))
    details.append(fixed.describe())
    return ExperimentResult(
        exp_id="E5",
        title="FloodSetWS in RWS (Figure 2)",
        paper_claim="FloodSet allows disagreement in RWS; FloodSetWS solves "
        "uniform consensus in RWS",
        measured=f"FloodSet violated: {not broken.ok}; FloodSetWS safe over "
        f"{fixed.runs_checked} runs: {fixed.ok}",
        ok=ok,
        details=details,
    )


def experiment_e6() -> ExperimentResult:
    """lat(C_OptFloodSet) = lat(C_OptFloodSetWS) = 1."""
    rs, safe_rs = profile_and_verify(COptFloodSet(), 3, 1, RoundModel.RS)
    rws, safe_rws = profile_and_verify(COptFloodSetWS(), 3, 1, RoundModel.RWS)
    ok = (
        rs.lat == 1
        and rws.lat == 1
        and safe_rs.ok
        and safe_rws.ok
    )
    return ExperimentResult(
        exp_id="E6",
        title="Unanimity fast path (Section 5.2)",
        paper_claim="lat(C_OptFloodSet) = lat(C_OptFloodSetWS) = 1",
        measured=f"lat RS={rs.lat}, lat RWS={rws.lat}; both safe: "
        f"{safe_rs.ok and safe_rws.ok}",
        ok=ok,
        details=[rs.describe(), rws.describe()],
    )


def experiment_e7() -> ExperimentResult:
    """Theorem 5.1 + Lat(F_Opt*) = 1 via t initial crashes."""
    rs, safe_rs = profile_and_verify(FOptFloodSet(), 3, 1, RoundModel.RS)
    rws, safe_rws = profile_and_verify(FOptFloodSetWS(), 3, 1, RoundModel.RWS)
    ok = (
        rs.Lat == 1
        and rws.Lat == 1
        and safe_rs.ok
        and safe_rws.ok
        and rs.Lambda == 2  # failure-free runs still need 2 rounds
    )
    return ExperimentResult(
        exp_id="E7",
        title="F_OptFloodSet (Figure 3, Theorem 5.1)",
        paper_claim="both solve uniform consensus; Lat = 1 (t initial "
        "crashes beat failure-free runs)",
        measured=f"Lat RS={rs.Lat}, Lat RWS={rws.Lat}, Λ RS={rs.Lambda}; "
        f"safe: {safe_rs.ok and safe_rws.ok}",
        ok=ok,
        details=[rs.describe(), rws.describe()],
    )


def experiment_e8() -> ExperimentResult:
    """Theorem 5.2: A1 solves uniform consensus in RS with Λ = 1."""
    sweeps = [3]
    ok = True
    details = []
    for n in sweeps:
        profile, report = profile_and_verify(A1(), n, 1, RoundModel.RS)
        case_ok = report.ok and profile.Lambda == 1 and profile.Lat == 1
        ok = ok and case_ok
        details.append(
            f"n={n}: safe={report.ok}, Λ={profile.Lambda}, Lat={profile.Lat}, "
            f"Lat(A,1)={profile.Lat_by_failures[1]}"
        )
    return ExperimentResult(
        exp_id="E8",
        title="A1 in RS (Figure 4, Theorem 5.2)",
        paper_claim="A1 tolerates one crash, solves uniform consensus in "
        "RS; every failure-free run decides at round 1 (Λ(A1) = 1)",
        measured="; ".join(details),
        ok=ok,
    )


def experiment_e9() -> ExperimentResult:
    """The Section 5.3 disagreement scenario defeats A1 in RWS."""
    request = named_cell("a1-rws").request
    run = harness_for(request.engine).execute(request, None)
    violations = check_uniform_consensus_run(run)
    named_ok = bool(violations)
    enumerated = verify_algorithm(A1(), 3, 1, RoundModel.RWS)
    return ExperimentResult(
        exp_id="E9",
        title="A1 is not uniform in RWS (Section 5.3 scenario)",
        paper_claim="p1 broadcasts, decides v1 and crashes with all "
        "messages pending; the others decide v2",
        measured=(
            f"named scenario violates uniform agreement: {named_ok} "
            f"(decisions: {dict(run.decisions)}); enumeration finds "
            f"{len(enumerated.violations)} violating runs of "
            f"{enumerated.runs_checked}"
        ),
        ok=named_ok and not enumerated.ok,
        details=[str(v) for v in violations[:2]],
    )


# ---------------------------------------------------------------------------
# E10 — the Λ >= 2 lower bound in RWS
# ---------------------------------------------------------------------------


def experiment_e10() -> ExperimentResult:
    """Every round-1-deciding RWS candidate is refuted; safe ones have Λ>=2."""
    verdicts = [
        refute_round_one_decision(candidate, 3, 1)
        for candidate in ROUND_ONE_CANDIDATES
    ]
    survey_ok = all(
        verdict.refuted or not verdict.has_round_one_property
        for verdict in verdicts
    )
    lambdas = {}
    for algorithm in (FloodSetWS(), COptFloodSetWS(), FOptFloodSetWS()):
        profile = latency_profile(algorithm, 3, 1, RoundModel.RWS)
        lambdas[algorithm.name] = profile.Lambda
    lambda_ok = all(value >= 2 for value in lambdas.values())
    a1_rs = latency_profile(A1(), 3, 1, RoundModel.RS).Lambda
    return ExperimentResult(
        exp_id="E10",
        title="Λ >= 2 in RWS vs Λ(A1) = 1 in RS",
        paper_claim="for n >= 3 no RWS uniform consensus algorithm decides "
        "at round 1 of all failure-free runs; hence Λ >= 2 in RWS",
        measured=(
            f"{len(verdicts)} round-1 candidates all refuted: {survey_ok}; "
            f"Λ of safe RWS algorithms {lambdas} (all >= 2: {lambda_ok}); "
            f"Λ(A1, RS) = {a1_rs}"
        ),
        ok=survey_ok and lambda_ok and a1_rs == 1,
        details=[verdict.describe() for verdict in verdicts],
    )


# ---------------------------------------------------------------------------
# E11 / E12 / E13 — emulations and the timeout detector
# ---------------------------------------------------------------------------


def experiment_e11() -> ExperimentResult:
    """RS on SS: round synchrony holds on every emulated run."""
    seeds = 8
    violations = 0
    runs = 0
    mismatches = 0
    for seed in range(seeds):
        rng = random.Random(seed)
        pattern = random_pattern(3, 1, 30, rng)
        trace = emulate_rs_on_ss(
            FloodSet(),
            adversarial_split(3),
            pattern,
            t=1,
            phi=1,
            delta=1,
            num_rounds=2,
            rng=rng,
        )
        runs += 1
        violations += len(check_emulated_round_synchrony(trace))
        decided = {
            pid: entry
            for pid, entry in trace.decisions.items()
            if entry is not None
        }
        if clauses.agreement(decided, pattern.correct):
            mismatches += 1
    deadlines = {
        f"Φ={phi},Δ={delta}": round_deadlines(3, phi, delta, 3)
        for phi, delta in ((1, 1), (2, 2))
    }
    return ExperimentResult(
        exp_id="E11",
        title="RS emulated on SS (Section 4.1)",
        paper_claim="each round costs n+k steps (k a function of n, Δ, Φ, "
        "r) and round synchrony holds",
        measured=f"{runs} emulated runs: {violations} round-synchrony "
        f"violations, {mismatches} agreement mismatches; per-round "
        f"step deadlines {deadlines}",
        ok=violations == 0 and mismatches == 0,
    )


def experiment_e12() -> ExperimentResult:
    """RWS on SP: Lemma 4.1 holds, non-vacuously."""
    seeds = 25
    violations = 0
    pending_total = 0
    runs = 0
    for seed in range(seeds):
        rng = random.Random(seed)
        pattern = FailurePattern.with_crashes(3, {0: rng.randint(3, 15)})
        trace = emulate_rws_on_sp(
            FloodSetWS(),
            adversarial_split(3),
            pattern,
            t=1,
            num_rounds=2,
            rng=rng,
            max_detection_delay=2,
            delivery_prob=0.15,
            max_age=80,
        )
        runs += 1
        violations += len(check_emulated_weak_round_synchrony(trace))
        pending_total += count_pending_messages(trace)
    return ExperimentResult(
        exp_id="E12",
        title="RWS emulated on SP (Lemma 4.1)",
        paper_claim="the receive-until-received-or-suspected emulation "
        "guarantees weak round synchrony",
        measured=f"{runs} emulated SP runs: {violations} weak-round-"
        f"synchrony violations; {pending_total} pending messages observed "
        "(lemma checked non-vacuously)",
        ok=violations == 0 and pending_total > 0,
    )


def experiment_e13() -> ExperimentResult:
    """Timeouts implement P on SS, within the Φ/Δ-derived bound."""
    seeds = 10
    n, phi, delta = 3, 2, 2
    threshold = detection_threshold(n, phi, delta)
    bad_class = 0
    max_delay = 0
    runs = 0
    for seed in range(seeds):
        rng = random.Random(seed)
        pattern = FailurePattern.with_crashes(n, {1: rng.randint(5, 60)})
        model = SynchronousModel(phi=phi, delta=delta)
        executor = model.executor(
            TimeoutPerfectDetector(n, phi, delta),
            n,
            pattern,
            rng=rng,
            record_states=True,
        )
        run = executor.execute(450)
        runs += 1
        history = history_from_run(run)
        report = classify_history(history, pattern, len(run.schedule) - 1)
        if not report.matches_class("P"):
            bad_class += 1
        for delay in detection_delays(run).values():
            if delay is not None:
                max_delay = max(max_delay, delay)
    # A heartbeat already in flight at the crash can refresh the silence
    # counter up to Δ observer steps after the crash, so detection takes
    # at most threshold + Δ + 1 observer steps.
    bound = threshold + delta + 1
    return ExperimentResult(
        exp_id="E13",
        title="P from timeouts on SS (Section 3 opening)",
        paper_claim="time-outs depending on Φ and Δ implement a perfect "
        "failure detector in SS, with a bounded detection delay",
        measured=f"{runs} SS runs: {bad_class} axiom failures; max observed "
        f"detection delay {max_delay} observer steps "
        f"(bound (n-1)(Φ+1)+2Δ+1 = {bound})",
        ok=bad_class == 0 and max_delay <= bound,
    )


# ---------------------------------------------------------------------------
# E14 / E15 — the uniform gap and the headline table
# ---------------------------------------------------------------------------


def experiment_e14() -> ExperimentResult:
    """Consensus and uniform consensus genuinely differ in RS and RWS."""
    # RWS witness (t = 1): the eager FloodSetWS variant solves plain
    # consensus but a decide-then-crash run breaks uniform agreement.
    eager_consensus = verify_algorithm(
        EagerFloodSetWS(), 3, 1, RoundModel.RWS, checker=check_consensus_run
    )
    eager_uniform = verify_algorithm(
        EagerFloodSetWS(), 3, 1, RoundModel.RWS, stop_after=1
    )
    # RS witness (t = 2): early-deciding consensus is non-uniform.
    early_consensus = verify_algorithm(
        EarlyDecidingConsensus(), 4, 2, RoundModel.RS,
        checker=check_consensus_run, horizon=5,
    )
    early_uniform = verify_algorithm(
        EarlyDecidingConsensus(), 4, 2, RoundModel.RS, stop_after=1,
        horizon=5,
    )
    uniform_fix = verify_algorithm(
        EarlyDecidingUniformFloodSet(), 4, 2, RoundModel.RS, horizon=6,
    )
    ok = (
        eager_consensus.ok
        and not eager_uniform.ok
        and early_consensus.ok
        and not early_uniform.ok
        and uniform_fix.ok
    )
    return ExperimentResult(
        exp_id="E14",
        title="Consensus vs uniform consensus gap (Section 5.1)",
        paper_claim="in RS and RWS, solving consensus does not imply "
        "solving uniform consensus",
        measured=(
            f"RWS(t=1): EagerFloodSetWS consensus-safe={eager_consensus.ok}, "
            f"uniform-safe={eager_uniform.ok}; RS(t=2): EarlyConsensus "
            f"consensus-safe={early_consensus.ok}, uniform-safe="
            f"{early_uniform.ok}; EarlyUniform uniform-safe={uniform_fix.ok}"
        ),
        ok=ok,
        details=(
            [str(v) for v in eager_uniform.violations[:1]]
            + [str(v) for v in early_uniform.violations[:1]]
        ),
    )


def experiment_e15() -> ExperimentResult:
    """The headline table: every algorithm × both models."""
    algorithms = [make_algorithm(key) for key in UNIFORM_CONSENSUS_ALGORITHMS]
    rows = latency_summary_table(algorithms, n=3, t=1)
    table = format_table(rows)
    by_key = {(row.algorithm, row.model): row for row in rows}
    ok = (
        by_key[("A1", "RS")].Lambda == 1
        and by_key[("A1", "RWS")].uniform_safe is False
        and by_key[("FloodSetWS", "RWS")].Lambda == 2
        and by_key[("FloodSet", "RWS")].uniform_safe is False
        and by_key[("F_OptFloodSet", "RS")].Lat == 1
        and by_key[("F_OptFloodSetWS", "RWS")].Lat == 1
    )
    return ExperimentResult(
        exp_id="E15",
        title="Headline summary: RS vs RWS",
        paper_claim="RS admits Λ = 1 (A1); every RWS algorithm has Λ >= 2; "
        "fast paths give lat = 1 / Lat = 1 in both",
        measured="see table",
        ok=ok,
        details=table.splitlines(),
    )


#: Registry of all experiments, keyed by id.
EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    "E1": experiment_e1,
    "E2": experiment_e2,
    "E3": experiment_e3,
    "E4": experiment_e4,
    "E5": experiment_e5,
    "E6": experiment_e6,
    "E7": experiment_e7,
    "E8": experiment_e8,
    "E9": experiment_e9,
    "E10": experiment_e10,
    "E11": experiment_e11,
    "E12": experiment_e12,
    "E13": experiment_e13,
    "E14": experiment_e14,
    "E15": experiment_e15,
}


def run_experiment(exp_id: str) -> ExperimentResult:
    """Run one experiment by id (e.g. ``"E9"``)."""
    key = exp_id.upper()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {exp_id!r}; choose from "
            f"{sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key]()


def run_all_experiments(jobs: int = 1) -> list[ExperimentResult]:
    """Run the full E1–E15 suite in order.

    With ``jobs > 1`` the experiments fan out over a process pool
    (they are independent and internally seeded); results come back in
    suite order regardless of scheduling.
    """
    from repro.runtime.pool import parallel_map

    ordered = sorted(EXPERIMENTS, key=lambda k: int(k[1:]))
    return parallel_map(run_experiment, ordered, jobs=jobs)
