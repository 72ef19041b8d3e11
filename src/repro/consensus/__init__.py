"""Uniform consensus algorithms for the RS and RWS round models.

Contents map directly onto the paper's figures:

* :class:`FloodSet` — Figure 1, the classical (t+1)-round algorithm.
* :class:`FloodSetWS` — Figure 2, FloodSet hardened against pending
  messages by the ``halt`` bookkeeping.
* :class:`COptFloodSet` / :class:`COptFloodSetWS` — the Section 5.2
  unanimity fast path (decide at round 1 on ``n`` identical values),
  witnessing ``lat = 1``.
* :class:`FOptFloodSet` — Figure 3 — and :class:`FOptFloodSetWS`: the
  ``n - t`` fast path (decide at round 1 when ``t`` processes are
  initially dead), witnessing ``Lat = 1``.
* :class:`A1` — Figure 4, the two-round algorithm with ``Λ = 1`` in RS
  for ``t = 1``.
* :class:`EarlyDecidingConsensus` / :class:`EarlyDecidingUniformFloodSet`
  — early-deciding baselines used to exhibit the consensus vs uniform
  consensus gap (Section 5.1's remark).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "spec": (
            "SpecViolation",
            "check_consensus_run",
            "check_uniform_consensus_run",
            "check_many",
        ),
        "floodset": ("FloodSet", "FloodSetWS"),
        "opt": ("COptFloodSet", "COptFloodSetWS"),
        "fopt": ("FOptFloodSet", "FOptFloodSetWS"),
        "a1": ("A1",),
        "early": (
            "EarlyDecidingConsensus",
            "EarlyDecidingUniformFloodSet",
            "EagerFloodSetWS",
        ),
    },
)

__all__ = [
    "SpecViolation",
    "check_consensus_run",
    "check_uniform_consensus_run",
    "check_many",
    "FloodSet",
    "FloodSetWS",
    "COptFloodSet",
    "COptFloodSetWS",
    "FOptFloodSet",
    "FOptFloodSetWS",
    "A1",
    "EarlyDecidingConsensus",
    "EarlyDecidingUniformFloodSet",
    "EagerFloodSetWS",
]
