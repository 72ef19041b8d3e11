"""Quickstart: run uniform consensus in synchronous rounds.

This example walks the shortest path through the library: build an
algorithm, run it under a failure scenario, inspect the run, check the
specification, and measure latency.

Run:  python examples/quickstart.py
"""

from repro import (
    FailureScenario,
    FloodSet,
    check_uniform_consensus_run,
    latency_profile,
    RoundModel,
)
from repro.rounds import CrashEvent, execute
from repro.trace import round_tableau


def main() -> None:
    # Three processes propose 0, 1, 1 and tolerate one crash (t = 1).
    values = [0, 1, 1]

    # 1. A failure-free run in RS: FloodSet floods values for t+1 = 2
    #    rounds and decides the minimum.
    clean = execute(
        FloodSet(), values, FailureScenario.failure_free(3), t=1,
        model=RoundModel.RS, max_rounds=3,
    )
    print("=== failure-free run ===")
    print(round_tableau(clean))
    print()

    # 2. An adversarial run: process 0 crashes mid-broadcast in round 1,
    #    reaching only process 1.  Round synchrony means process 2's
    #    missing message *proves* the crash; the round-2 flood still
    #    spreads value 0 to everyone.
    scenario = FailureScenario(
        n=3, crashes=(CrashEvent(pid=0, round=1, sent_to=frozenset({1})),)
    )
    crashed = execute(
        FloodSet(), values, scenario, t=1, model=RoundModel.RS, max_rounds=3
    )
    print(f"=== crash mid-broadcast: {scenario.describe()} ===")
    print(round_tableau(crashed))
    print()

    # 3. Specification checking: no uniform consensus clause is violated.
    violations = check_uniform_consensus_run(crashed)
    print("spec violations:", violations or "none")
    print()

    # 4. Latency measurement over the *entire* bounded run space:
    #    lat / Lat / Λ of Section 5.2, computed exactly.
    profile = latency_profile(FloodSet(), 3, 1, RoundModel.RS)
    print(profile.describe())


if __name__ == "__main__":
    main()
