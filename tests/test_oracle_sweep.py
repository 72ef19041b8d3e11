"""Chaos-style sweep: the trace oracle over every workload scenario.

The checkers are only worth trusting if the engines never trip them on
legitimate runs.  Since PR 3 the sweep itself lives in the unified
runtime: :func:`repro.runtime.oracle_sweep_space` enumerates every
named workload, randomized adversaries in both round models, and both
emulation engines; :class:`repro.runtime.SweepRunner` with
``check=True`` runs the full checker suite over each produced trace.
Model invariants must always hold; only consensus may break, and only
on the cells documented to break it.  Replay coverage (byte-for-byte
re-execution and scenario reconstruction) stays here, driven off the
runtime's results.
"""

from __future__ import annotations

import random

import pytest

from repro.consensus import FloodSet
from repro.obs import (
    EventLog,
    reconstruct_scenario,
    replay_events,
)
from repro.rounds import run_rws
from repro.rounds.enumeration import random_scenario
from repro.runtime import (
    SweepRunner,
    execute_request,
    make_algorithm,
    oracle_sweep_space,
)
from repro.workloads import adversarial_split

SPACE = oracle_sweep_space()

#: The named workload cells (round engine, one per legacy WORKLOAD).
WORKLOAD_REQUESTS = [
    request
    for request in SPACE
    if request.engine == "rounds" and not request.name.startswith("random-")
]


class TestOracleSweepSpace:
    def test_space_covers_workloads_streams_and_emulations(self):
        names = [request.name for request in SPACE]
        assert len(names) == len(set(names))
        assert len(WORKLOAD_REQUESTS) == 8
        assert sum(1 for n in names if n.startswith("random-rs-")) == 10
        assert sum(1 for n in names if n.startswith("random-rws-")) == 10
        assert "emulation-rs-on-ss" in names
        assert "emulation-rws-on-sp" in names

    def test_full_sweep_passes_oracle(self):
        result = SweepRunner(check=True).run(SPACE)
        assert result.total == len(SPACE)
        assert result.checks_ok, result.describe()

    def test_documented_disagreements_reproduced(self):
        result = SweepRunner(check=True).run(SPACE)
        by_name = {check.name: check for check in result.checks}
        for name in ("floodset-rws", "a1-rws"):
            check = by_name[name]
            assert check.expected_disagreement
            assert check.consensus_violations > 0, check.describe()


class TestWorkloadReplay:
    @pytest.mark.parametrize(
        "request_",
        WORKLOAD_REQUESTS,
        ids=[request.name for request in WORKLOAD_REQUESTS],
    )
    def test_scenario_replays_byte_for_byte(self, request_):
        result = execute_request(request_)
        report = replay_events(
            make_algorithm(request_.algorithm),
            request_.values,
            result.events,
            t=1,
        )
        assert report.exact, report.describe()


class TestRandomScenarioSweep:
    """Randomized adversaries: reconstruction and replay must reproduce
    whatever the validated sampler drives the engine through.  (The
    model-invariant coverage for random streams now runs inside the
    checked sweep above.)"""

    def test_random_scenarios_reconstruct_and_replay(self):
        rng = random.Random(7)
        for trial in range(15):
            scenario = random_scenario(
                3, 1, max_round=3, allow_pending=True, rng=rng
            )
            log = EventLog()
            run_rws(
                FloodSet(),
                adversarial_split(3),
                scenario,
                t=1,
                max_rounds=4,
                observer=log,
            )
            rebuilt = reconstruct_scenario(log.events)
            # crashes after the executed horizon leave no trace; every
            # reconstructed fact must match the original scenario
            assert rebuilt.pending <= scenario.pending
            for crash in rebuilt.crashes:
                assert crash in scenario.crashes
            report = replay_events(
                FloodSet(), adversarial_split(3), log.events, t=1
            )
            assert report.exact, f"trial {trial}: {report.describe()}"
