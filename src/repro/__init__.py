"""repro — Synchronous System vs Perfect Failure Detector, executable.

A from-scratch reproduction of

    Bernadette Charron-Bost, Rachid Guerraoui, André Schiper.
    "Synchronous System and Perfect Failure Detector: solvability and
    efficiency issues."  DSN 2000.

The library implements every system the paper builds on — a step-level
message-passing kernel, the synchronous model SS (Φ/Δ bounds), the
Chandra–Toueg failure-detector hierarchy and the SP model, the round
models RS and RWS with reified adversaries, the emulations tying them
together — plus every algorithm the paper presents (FloodSet,
FloodSetWS, the C_Opt/F_Opt fast paths, A1, the SDD algorithms, atomic
commit), and the analysis machinery that turns the paper's theorems and
latency equalities into exhaustive, mechanical experiments (E1–E15).

Quickstart::

    from repro import run_rs, FloodSet, FailureScenario

    run = run_rs(FloodSet(), values=[0, 1, 1],
                 scenario=FailureScenario.failure_free(3), t=1)
    print(run.decisions)      # every process decides 0 at round 2

See ``examples/`` for complete walkthroughs and ``python -m repro
experiments`` for the full reproduction suite.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "errors": (
            "ReproError",
            "ConfigurationError",
            "ScheduleError",
            "DetectorViolation",
            "ScenarioError",
            "ExecutionError",
        ),
        "failures": ("FailurePattern", "PerfectDetector"),
        "models": ("AsynchronousModel", "PerfectFDModel", "SynchronousModel"),
        "rounds": (
            "CrashEvent",
            "FailureScenario",
            "PendingMessage",
            "RoundAlgorithm",
            "RoundModel",
            "RoundRun",
            "run_rs",
            "run_rws",
        ),
        "consensus": (
            "A1",
            "COptFloodSet",
            "COptFloodSetWS",
            "FloodSet",
            "FloodSetWS",
            "FOptFloodSet",
            "FOptFloodSetWS",
            "check_consensus_run",
            "check_uniform_consensus_run",
        ),
        "analysis": ("LatencyProfile", "latency_profile", "verify_algorithm"),
        "core": (
            "EXPERIMENTS",
            "ExperimentResult",
            "run_all_experiments",
            "run_experiment",
        ),
    },
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "ConfigurationError",
    "ScheduleError",
    "DetectorViolation",
    "ScenarioError",
    "ExecutionError",
    # models & failures
    "FailurePattern",
    "PerfectDetector",
    "AsynchronousModel",
    "SynchronousModel",
    "PerfectFDModel",
    # round models
    "CrashEvent",
    "FailureScenario",
    "PendingMessage",
    "RoundAlgorithm",
    "RoundModel",
    "RoundRun",
    "run_rs",
    "run_rws",
    # algorithms
    "A1",
    "FloodSet",
    "FloodSetWS",
    "COptFloodSet",
    "COptFloodSetWS",
    "FOptFloodSet",
    "FOptFloodSetWS",
    # specs & analysis
    "check_consensus_run",
    "check_uniform_consensus_run",
    "LatencyProfile",
    "latency_profile",
    "verify_algorithm",
    # experiments
    "EXPERIMENTS",
    "ExperimentResult",
    "run_experiment",
    "run_all_experiments",
    "__version__",
]
