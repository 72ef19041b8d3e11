"""Round-based computational models RS and RWS (paper Section 4).

``RS`` is the classical lock-step synchronous round model: every alive
process sends, then every alive process receives *everything that was
sent to it this round* and applies its transition.  It satisfies the
**round synchrony** property: if ``p_i`` is alive at the end of round
``r`` and received no round-``r`` message from ``p_j``, then ``p_j``
failed before sending to ``p_i`` in round ``r``.

``RWS`` (weakly synchronous rounds) is the round model that the
asynchronous model with a perfect failure detector can emulate.  A
message sent in round ``r`` may fail to be delivered even though its
recipient finishes the round — a *pending* message — but then the
**weak round synchrony** property forces the sender to crash by the end
of round ``r+1``.

All nondeterminism (who crashes when, which recipients a crashing
broadcast reached, which sent messages become pending) is reified in
:class:`~repro.rounds.scenario.FailureScenario` objects, which makes
exhaustive exploration — and hence mechanical reproduction of the
paper's latency claims — possible.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "algorithm": ("RoundAlgorithm", "broadcast"),
        "scenario": (
            "CrashEvent",
            "FailureScenario",
            "PendingMessage",
            "validate_scenario",
        ),
        "executor": (
            "RoundModel",
            "RoundRecord",
            "RoundRun",
            "execute",
            "run_rs",
            "run_rws",
        ),
        "enumeration": (
            "all_crash_events",
            "all_scenarios",
            "all_value_assignments",
            "expected_scenario_count",
            "random_scenario",
        ),
    },
)

__all__ = [
    "RoundAlgorithm",
    "broadcast",
    "CrashEvent",
    "FailureScenario",
    "PendingMessage",
    "validate_scenario",
    "RoundModel",
    "RoundRecord",
    "RoundRun",
    "execute",
    "run_rs",
    "run_rws",
    "all_crash_events",
    "all_scenarios",
    "all_value_assignments",
    "expected_scenario_count",
    "random_scenario",
]
