"""Emulations tying the round models to the step-level system models.

Section 4 of the paper introduces RS and RWS as models "that can be
easily emulated from SS and SP"; :mod:`repro.emulation.synchronizer`
implements both emulations on the step kernel as one round-on-steps
automaton with two round-completion rules, making the tie executable:

* RS on SS — a round ends on a local-step deadline derived from Φ, Δ
  and n (the paper's "n + k steps, k a function of n, Δ, Φ and r"); the
  derived per-round delivery pattern satisfies *round synchrony* on
  every run.
* RWS on SP — a process finishes a round once, for every peer, it has
  either received that peer's round message or suspects the peer.
  Pending messages genuinely occur, and every run satisfies *weak round
  synchrony* (Lemma 4.1).

:mod:`repro.emulation.induce` lifts an emulated trace back to the
round-level :class:`~repro.rounds.scenario.FailureScenario` it
realised, so the round executor can re-run it.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "synchronizer": (
            "RoundOnSSAutomaton",
            "round_deadlines",
            "emulate_rs_on_ss",
            "EmulatedRoundTrace",
            "check_emulated_round_synchrony",
            "RoundOnSPAutomaton",
            "emulate_rws_on_sp",
            "check_emulated_weak_round_synchrony",
            "count_pending_messages",
        ),
        "induce": ("induced_scenario",),
    },
)

__all__ = [
    "RoundOnSSAutomaton",
    "round_deadlines",
    "emulate_rs_on_ss",
    "EmulatedRoundTrace",
    "check_emulated_round_synchrony",
    "RoundOnSPAutomaton",
    "emulate_rws_on_sp",
    "check_emulated_weak_round_synchrony",
    "count_pending_messages",
    "induced_scenario",
]
