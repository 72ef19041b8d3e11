"""Extension experiments (X1–X5): beyond the paper's explicit claims.

These ablations probe the design space around the paper — larger
resilience, more processes, the emulation's step cost as a function of
the synchrony bounds, and the agreement stack built on top (atomic
broadcast).  They reuse the same claim-vs-measured reporting as the
E-series but are clearly separated: the paper asserts none of these
numbers, they characterise *this implementation's* behaviour in
paper-adjacent regimes.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.analysis import latency_profile, profile_and_verify, verify_algorithm
from repro.broadcast import (
    AtomicBroadcast,
    AtomicBroadcastWS,
    check_atomic_broadcast_run,
)
from repro.commit import commit_rate
from repro.commit.algorithms import PerfectFDCommit, SynchronousCommit
from repro.consensus import (
    EarlyDecidingUniformFloodSet,
    FloodSet,
    FloodSetWS,
)
from repro.core.experiments import ExperimentResult
from repro.emulation import emulate_rs_on_ss, round_deadlines
from repro.failures import FailurePattern
from repro.rounds import RoundModel


def extension_x1(quick: bool = True) -> ExperimentResult:
    """t = 2: the t+1-round pattern persists at higher resilience."""
    profile_rs, report_rs = profile_and_verify(
        FloodSet(), 4, 2, RoundModel.RS
    )
    sampled_ws = verify_algorithm(
        FloodSetWS(), 4, 2, RoundModel.RWS,
        sample=300 if quick else 2_000, rng=random.Random(1),
    )
    early = verify_algorithm(
        EarlyDecidingUniformFloodSet(), 4, 2, RoundModel.RS, horizon=6
    )
    ok = (
        report_rs.ok
        and profile_rs.Lat == 3
        and profile_rs.Lambda == 3
        and sampled_ws.ok
        and early.ok
    )
    return ExperimentResult(
        exp_id="X1",
        title="Resilience sweep: t = 2",
        paper_claim="(extension) FloodSet's t+1-round behaviour and the "
        "WS repair scale beyond t = 1",
        measured=(
            f"FloodSet RS (n=4, t=2): safe={report_rs.ok}, "
            f"Lat={profile_rs.Lat}, Λ={profile_rs.Lambda} over "
            f"{profile_rs.runs_explored} exhaustive runs; FloodSetWS RWS "
            f"sampled({sampled_ws.runs_checked}): safe={sampled_ws.ok}; "
            f"EarlyUniform RS: safe={early.ok}"
        ),
        ok=ok,
    )


def extension_x2(quick: bool = True) -> ExperimentResult:
    """Commit-rate gap as the system grows."""
    rows = []
    ok = True
    sizes = (3, 4) if quick else (3, 4, 5)
    for n in sizes:
        sync = commit_rate(SynchronousCommit(), RoundModel.RS, n=n, t=1)
        safe = commit_rate(PerfectFDCommit(), RoundModel.RWS, n=n, t=1)
        rows.append(
            f"n={n}: SyncCommit@RS {sync.commit_rate:.0%} vs P-Commit@RWS "
            f"{safe.commit_rate:.1%}"
        )
        ok = ok and sync.commit_rate == 1.0 and safe.commit_rate < 1.0
        ok = ok and sync.safe and safe.safe
    return ExperimentResult(
        exp_id="X2",
        title="Commit-rate gap vs system size",
        paper_claim="(extension) the SS commit advantage is not a small-n "
        "artefact",
        measured="; ".join(rows),
        ok=ok,
    )


def extension_x3(quick: bool = True) -> ExperimentResult:
    """The emulation's step price as a function of Φ and Δ."""
    details = []
    for phi, delta in ((1, 1), (1, 3), (2, 1), (2, 2), (3, 1)):
        deadlines = round_deadlines(3, phi, delta, 3)
        details.append(f"Φ={phi},Δ={delta}: S_r={deadlines}")
    # Measure actual global steps of one emulated 2-round execution per
    # configuration and confirm it stays within n x (S_2 + slack).
    ok = True
    measured = []
    for phi, delta in ((1, 1), (2, 2)):
        trace = emulate_rs_on_ss(
            FloodSet(),
            [0, 1, 1],
            FailurePattern.crash_free(3),
            t=1,
            phi=phi,
            delta=delta,
            num_rounds=2,
            rng=random.Random(3),
        )
        deadline = round_deadlines(3, phi, delta, 2)[-1]
        steps = len(trace.run.schedule)
        measured.append(f"Φ={phi},Δ={delta}: {steps} global steps "
                        f"(deadline {deadline} local)")
        ok = ok and steps <= 3 * (deadline + 2)
    return ExperimentResult(
        exp_id="X3",
        title="RS-on-SS emulation cost ablation",
        paper_claim="(extension) the per-round step budget k grows "
        "linearly in Δ and geometrically in Φ",
        measured="; ".join(measured),
        ok=ok,
        details=details,
    )


def extension_x4(quick: bool = True) -> ExperimentResult:
    """Atomic broadcast inherits the RS/RWS split of its consensus core."""
    domain = (("x",), ("y",))
    rs = verify_algorithm(
        AtomicBroadcast(), 3, 1, RoundModel.RS,
        checker=check_atomic_broadcast_run, domain=domain, horizon=4,
    )
    ws = verify_algorithm(
        AtomicBroadcastWS(), 3, 1, RoundModel.RWS,
        checker=check_atomic_broadcast_run, domain=domain, horizon=4,
    )
    plain_rws = verify_algorithm(
        AtomicBroadcast(), 3, 1, RoundModel.RWS,
        checker=check_atomic_broadcast_run, domain=domain, horizon=4,
        stop_after=1,
    )
    ok = rs.ok and ws.ok and not plain_rws.ok
    return ExperimentResult(
        exp_id="X4",
        title="Atomic broadcast over the two round models",
        paper_claim="(extension) the paper's motivating agreement problem "
        "— atomic broadcast — shows the same RS/RWS split as its "
        "consensus core",
        measured=(
            f"AtomicBroadcast@RS safe over {rs.runs_checked} runs: {rs.ok}; "
            f"AtomicBroadcastWS@RWS safe over {ws.runs_checked} runs: "
            f"{ws.ok}; plain variant violates total order in RWS: "
            f"{not plain_rws.ok}"
        ),
        ok=ok,
        details=[str(v) for v in plain_rws.violations[:1]],
    )


#: Registry of extension experiments.
EXTENSIONS: dict[str, Callable[[bool], ExperimentResult]] = {
    "X1": extension_x1,
    "X2": extension_x2,
    "X3": extension_x3,
    "X4": extension_x4,
}


def run_extension(ext_id: str, quick: bool = True) -> ExperimentResult:
    """Run one extension experiment by id (e.g. ``"X2"``)."""
    key = ext_id.upper()
    if key not in EXTENSIONS:
        raise KeyError(
            f"unknown extension {ext_id!r}; choose from {sorted(EXTENSIONS)}"
        )
    return EXTENSIONS[key](quick)


def run_all_extensions(quick: bool = True) -> list[ExperimentResult]:
    """Run every extension experiment in order."""
    ordered = sorted(EXTENSIONS, key=lambda k: int(k[1:]))
    return [EXTENSIONS[key](quick) for key in ordered]


def extension_x5(quick: bool = True) -> ExperimentResult:
    """The companion theorem: uniform consensus is harder than consensus.

    In RS with t >= 2, plain consensus can decide at round 1 of every
    failure-free run (EarlyDecidingConsensus does), but no *uniform*
    consensus algorithm can: every round-1-deciding candidate is
    refuted by exhaustive search, and the uniform algorithms measured
    all have Λ = 2.
    """
    from repro.analysis import refute_round_one_decision
    from repro.consensus import EagerFloodSetWS, EarlyDecidingConsensus
    from repro.consensus.candidates import LeaderOrOwn, MinRoundOne
    from repro.rounds.executor import execute
    from repro.rounds.scenario import FailureScenario

    n, t = 4, 2
    # (a) consensus reaches Λ = 1: EarlyConsensus decides failure-free
    # runs at round 1 (its safety at (4,2) is E14's business).
    scenario = FailureScenario.failure_free(n)
    run = execute(
        EarlyDecidingConsensus(), (0, 1, 1, 0), scenario,
        t=t, model=RoundModel.RS, max_rounds=t + 2, validate=False,
    )
    consensus_round_one = run.latency() == 1

    # (b) every uniform round-1 candidate falls in RS at t = 2.
    candidates = [MinRoundOne(), LeaderOrOwn(), EagerFloodSetWS()]
    verdicts = [
        refute_round_one_decision(c, n, t, model=RoundModel.RS)
        for c in candidates
    ]
    survey_ok = all(
        v.refuted or not v.has_round_one_property for v in verdicts
    )

    # (c) the uniform algorithms pay the extra round even without failures.
    from repro.consensus import EarlyDecidingUniformFloodSet, FloodSetWS

    uniform_lambdas = {}
    for algorithm in (EarlyDecidingUniformFloodSet(),):
        ff = execute(
            algorithm, (0, 1, 1, 0), scenario,
            t=t, model=RoundModel.RS, max_rounds=t + 3, validate=False,
        )
        uniform_lambdas[algorithm.name] = ff.latency()
    lambda_ok = all(v >= 2 for v in uniform_lambdas.values())

    return ExperimentResult(
        exp_id="X5",
        title="Uniform consensus is harder than consensus (RS, t = 2)",
        paper_claim="(extension; companion paper [7]) consensus decides "
        "failure-free runs at round 1 in RS, uniform consensus cannot",
        measured=(
            f"EarlyConsensus failure-free round-1 decisions: "
            f"{consensus_round_one}; {len(verdicts)} uniform round-1 "
            f"candidates refuted in RS(4,2): {survey_ok}; failure-free "
            f"decision rounds of uniform algorithms: {uniform_lambdas}"
        ),
        ok=consensus_round_one and survey_ok and lambda_ok,
        details=[v.describe() for v in verdicts],
    )


EXTENSIONS["X5"] = extension_x5


def extension_x6(quick: bool = True) -> ExperimentResult:
    """Timeouts give ◊P under partial synchrony (the intro's [12] remark).

    Before the (unknown) stabilisation time the adaptive-timeout
    detector makes genuine mistakes; after it, every refuted suspicion
    has lengthened the timers enough that accuracy holds — the lifted
    history satisfies ◊P but, thanks to the pre-GST mistakes, not P.
    """
    import random as _random

    from repro.failures import (
        AdaptiveTimeoutDetector,
        classify_history,
        history_from_run,
    )
    from repro.models import PartiallySynchronousModel
    from repro.simulation.executor import StepExecutor

    seeds = 6 if quick else 25
    eventually_perfect = 0
    mistakes = 0
    suffix_clean = 0
    for seed in range(seeds):
        rng = _random.Random(seed)
        model = PartiallySynchronousModel(
            phi=1, delta=2, gst=120, pre_gst_delivery_prob=0.15
        )
        pattern = FailurePattern.with_crashes(
            3, {1: 250} if seed % 2 else {}
        )
        executor = StepExecutor(
            AdaptiveTimeoutDetector(3),
            3,
            pattern,
            model.make_scheduler(rng),
            record_states=True,
        )
        run = executor.execute(900)
        suffix_clean += not model.validate(run)
        history = history_from_run(run)
        report = classify_history(history, pattern, len(run.schedule) - 1)
        eventually_perfect += report.matches_class("<>P")
        mistakes += not report.strong_accuracy
    return ExperimentResult(
        exp_id="X6",
        title="◊P from adaptive timeouts under partial synchrony",
        paper_claim="(extension; the intro's reference [12]) time-outs "
        "implement an eventually perfect failure detector when the "
        "synchrony bounds hold only eventually",
        measured=(
            f"{seeds} partially synchronous runs: {eventually_perfect} "
            f"satisfy ◊P; {mistakes} contain pre-GST false suspicions "
            f"(the eventual clause is non-vacuous); {suffix_clean} "
            "post-GST suffixes are SS-admissible"
        ),
        ok=(
            eventually_perfect == seeds
            and mistakes > 0
            and suffix_clean == seeds
        ),
    )


EXTENSIONS["X6"] = extension_x6


def extension_x7(quick: bool = True) -> ExperimentResult:
    """Early-deciding bounds: Lat(A, f) tables for the f+1 / f+2 gap.

    The companion paper quantifies the uniform-consensus penalty: plain
    consensus admits decision by round f+1 (f = actual failures),
    uniform consensus by f+2.  We measure Lat(A, f) exactly over the
    exhaustive RS space at (n, t) = (4, 2) for the two early-deciding
    algorithms and check the shapes.
    """
    from repro.analysis.latency import explore_runs
    from repro.consensus import (
        EarlyDecidingConsensus,
        EarlyDecidingUniformFloodSet,
    )
    from repro.consensus.spec import (
        check_consensus_run,
        check_uniform_consensus_run,
    )

    n, t = 4, 2
    tables: dict[str, dict[int, int]] = {}
    safety_ok = True
    for algorithm, checker in (
        (EarlyDecidingConsensus(), check_consensus_run),
        (EarlyDecidingUniformFloodSet(), check_uniform_consensus_run),
    ):
        worst: dict[int, int] = {}
        for run in explore_runs(
            algorithm, n, t, RoundModel.RS, horizon=t + 4
        ):
            if checker(run):
                safety_ok = False
            latency = run.latency()
            if latency is None:
                safety_ok = False
                continue
            failures = run.scenario.num_failures()
            for f in range(failures, t + 1):
                worst[f] = max(worst.get(f, 0), latency)
        tables[algorithm.name] = dict(sorted(worst.items()))

    consensus_table = tables["EarlyConsensus"]
    uniform_table = tables["EarlyUniform"]
    # Shapes: consensus decides failure-free at round 1; uniform pays
    # one more round at every failure budget.
    shape_ok = (
        consensus_table[0] == 1
        and uniform_table[0] == 2
        and all(
            uniform_table[f] >= consensus_table[f] + 1
            for f in consensus_table
        )
        and all(
            consensus_table[f] <= f + 2 for f in consensus_table
        )
        and all(uniform_table[f] <= f + 3 for f in uniform_table)
    )
    return ExperimentResult(
        exp_id="X7",
        title="Early-deciding bounds: Lat(A, f) for the f+1 / f+2 gap",
        paper_claim="(extension; companion paper [7]) plain consensus "
        "decides by ~f+1 rounds, uniform consensus pays about one round "
        "more at every failure budget",
        measured=(
            f"exhaustive RS (n={n}, t={t}): Lat(EarlyConsensus, f) = "
            f"{consensus_table}; Lat(EarlyUniform, f) = {uniform_table}; "
            f"safety: {safety_ok}"
        ),
        ok=safety_ok and shape_ok,
    )


EXTENSIONS["X7"] = extension_x7
