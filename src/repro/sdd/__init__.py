"""The Strongly Dependent Decision (SDD) problem — Section 3.

SDD is the paper's witness that SS is *strictly* stronger than SP even
for time-free problems.  Two processes: a sender ``p_i`` with an input
in {0, 1} and a receiver ``p_j`` that must output a decision in {0, 1}
subject to

* **Integrity** — ``p_j`` decides at most once;
* **Validity** — if ``p_i`` has not initially crashed, the only
  possible decision value for ``p_j`` is ``p_i``'s initial value;
* **Termination** — if ``p_j`` is correct, it eventually decides.

In SS the problem is trivial (wait ``Φ + 1 + Δ`` steps — module
:mod:`repro.sdd.ss_algorithm`); in SP it is unsolvable (Theorem 3.1 —
mechanised as a run-quadruple refuter in
:mod:`repro.sdd.impossibility`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "spec": ("SDDVerdict", "check_sdd_run", "sdd_decision"),
        "ss_algorithm": ("SDDSender", "SDDReceiverSS", "solve_sdd_ss"),
        "impossibility": (
            "QUADRUPLE",
            "SDDRefutation",
            "refute_sdd_candidate",
            "sdd_quadruple_traces",
            "TimeoutReceiverSP",
            "SuspicionReceiverSP",
            "PatientReceiverSP",
            "SP_CANDIDATE_FACTORIES",
        ),
    },
)

__all__ = [
    "SDDVerdict",
    "check_sdd_run",
    "sdd_decision",
    "SDDSender",
    "SDDReceiverSS",
    "solve_sdd_ss",
    "QUADRUPLE",
    "SDDRefutation",
    "refute_sdd_candidate",
    "sdd_quadruple_traces",
    "TimeoutReceiverSP",
    "SuspicionReceiverSP",
    "PatientReceiverSP",
    "SP_CANDIDATE_FACTORIES",
]
