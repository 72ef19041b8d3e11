"""System models: asynchronous, SS (synchronous), SP (async + P).

Following the paper's Section 2, a system model "determines the set of
runs that algorithms can produce in the model".  Concretely each model
here provides

* a *scheduler factory* that only generates admissible runs of the
  model, and
* a *validator* that checks an arbitrary run against the model's
  conditions (used to cross-check the schedulers and in tests).

The synchronous conditions of SS — process synchrony (Φ) and message
synchrony (Δ) — are stated purely on schedule indices, exactly as in
the paper (after Dolev–Dwork–Stockmeyer), never on wall-clock time.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "base": ("SystemModel",),
        "asynchronous": ("AsynchronousModel", "check_admissible_prefix"),
        "ss": (
            "SynchronousModel",
            "SSScheduler",
            "check_process_synchrony",
            "check_message_synchrony",
            "validate_ss_run",
        ),
        "sp": ("PerfectFDModel", "validate_sp_run"),
    },
)

__all__ = [
    "SystemModel",
    "AsynchronousModel",
    "check_admissible_prefix",
    "SynchronousModel",
    "SSScheduler",
    "check_process_synchrony",
    "check_message_synchrony",
    "validate_ss_run",
    "PerfectFDModel",
    "validate_sp_run",
]
