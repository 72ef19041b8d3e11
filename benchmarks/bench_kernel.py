"""Kernel microbenchmarks: the substrate's raw costs.

Not tied to a paper artefact — these quantify the building blocks every
experiment pays for (step execution, SS scheduling, round execution,
scenario enumeration), so regressions in the substrate are visible
independently of the experiment-level numbers.
"""

import random

from repro.consensus import FloodSet
from repro.failures import FailurePattern
from repro.models import SSScheduler, SynchronousModel
from repro.obs import EventLog, metrics_of
from repro.rounds import FailureScenario, RoundModel, all_scenarios, run_rs
from repro.rounds.executor import execute
from repro.simulation import RoundRobinScheduler, StepExecutor
from repro.simulation.automaton import IdleAutomaton


def bench_step_executor_throughput(benchmark):
    """1000 kernel steps under the round-robin scheduler."""
    pattern = FailurePattern.crash_free(4)

    def run_1000_steps():
        executor = StepExecutor(
            IdleAutomaton(), 4, pattern, RoundRobinScheduler()
        )
        return executor.execute(1000)

    run = benchmark(run_1000_steps)
    assert len(run.schedule) == 1000


def bench_ss_scheduler_throughput(benchmark):
    """1000 kernel steps under the Φ/Δ-respecting SS scheduler."""
    pattern = FailurePattern.crash_free(4)

    def run_1000_steps():
        executor = StepExecutor(
            IdleAutomaton(),
            4,
            pattern,
            SSScheduler(2, 2, rng=random.Random(3)),
        )
        return executor.execute(1000)

    run = benchmark(run_1000_steps)
    assert len(run.schedule) == 1000


def bench_single_round_run(benchmark):
    """One FloodSet execution in RS (the unit of every sweep)."""
    scenario = FailureScenario.failure_free(3)
    run = benchmark(run_rs, FloodSet(), [0, 1, 1], scenario, t=1)
    assert run.latency() == 2


def bench_single_round_run_observed(benchmark):
    """bench_single_round_run with full tracing + metrics attached.

    The delta against ``bench_single_round_run`` is the *observer-on*
    cost; the observer-off path only pays ``observer is not None``
    checks and must stay within noise of the seed numbers.
    """
    scenario = FailureScenario.failure_free(3)

    def run_observed():
        log = EventLog()
        run = run_rs(FloodSet(), [0, 1, 1], scenario, t=1, observer=log)
        return run, metrics_of(log.events)

    run, metrics = benchmark(run_observed)
    assert run.latency() == 2
    assert metrics["counters"]["rounds.started"] == 2


def bench_step_executor_observed(benchmark):
    """1000 observed kernel steps (EventLog attached)."""
    pattern = FailurePattern.crash_free(4)

    def run_1000_steps():
        executor = StepExecutor(
            IdleAutomaton(),
            4,
            pattern,
            RoundRobinScheduler(),
            observer=EventLog(),
        )
        return executor.execute(1000)

    run = benchmark(run_1000_steps)
    assert len(run.schedule) == 1000


def bench_scenario_enumeration_rws(benchmark):
    """Materialising the full RWS adversary space for n=3, t=1."""
    scenarios = benchmark(
        lambda: list(all_scenarios(3, 1, max_round=2, allow_pending=True))
    )
    assert len(scenarios) > 100
    benchmark.extra_info["scenario_count"] = len(scenarios)


def bench_run_with_validation(benchmark):
    """Scenario validation overhead (execute with validate=True)."""
    scenario = FailureScenario.failure_free(3)
    run = benchmark(
        execute,
        FloodSet(),
        [0, 1, 1],
        scenario,
        t=1,
        model=RoundModel.RS,
        max_rounds=3,
    )
    assert run.latency() == 2
