"""Emulations tying the round models to the step-level system models.

Section 4 of the paper introduces RS and RWS as models "that can be
easily emulated from SS and SP"; this package implements both
emulations on the step kernel, making the tie executable:

* :mod:`repro.emulation.rs_on_ss` — synchronous rounds on the SS step
  model.  Each round costs a precomputed number of local steps derived
  from Φ, Δ and n (the paper's "n + k steps, k a function of n, Δ, Φ
  and r"); the derived per-round delivery pattern satisfies *round
  synchrony* on every run.
* :mod:`repro.emulation.rws_on_sp` — weakly synchronous rounds on the
  SP model: a process finishes a round once, for every peer, it has
  either received that peer's round message or suspects the peer.
  Pending messages genuinely occur, and every run satisfies *weak round
  synchrony* (Lemma 4.1).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "rs_on_ss": (
            "RoundOnSSAutomaton",
            "round_deadlines",
            "emulate_rs_on_ss",
            "EmulatedRoundTrace",
            "check_emulated_round_synchrony",
        ),
        "rws_on_sp": (
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
