"""Non-blocking atomic commit on RS and RWS — the SDD payoff.

Section 3 of the paper motivates SDD through atomic commit: "solving
SDD provides more efficient atomic commit algorithms, i.e., algorithms
that lead to the commit decision more often...  When all processes
propose to commit and there is no initially dead process, processes may
safely decide to commit despite failures if the SDD problem is
solvable."

The connection, in round-model terms: in RS a vote that was *sent to
anyone* is recoverable (sent messages are delivered — the SS message
synchrony guarantee behind the SDD algorithm), so a voter that is not
initially dead always gets its vote counted and the survivors may
commit whenever every visible vote is YES.  In RWS a missing vote may
be *pending* from a voter that did cast it — possibly a NO — so the
same optimistic rule violates commit-validity and a safe algorithm must
abort whenever any vote is missing.  Hence synchronous commit decides
COMMIT in strictly more runs: experiment E3 measures both rates and
exhibits the optimistic rule's violation in RWS.

Algorithms:

* :class:`SynchronousCommit` — vote flooding + optimistic rule (RS,
  ``t = 1``);
* :class:`PerfectFDCommit` — vote flooding with the FloodSetWS halt
  guard + strict all-votes-visible rule (RWS-safe);
* :class:`OptimisticFDCommit` — the RS rule transplanted to RWS,
  deliberately unsafe (the demonstration);
* :class:`TwoPhaseCommit` — the classical blocking baseline.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "spec": (
            "COMMIT",
            "ABORT",
            "check_nbac_run",
            "check_commit_obligation",
        ),
        "algorithms": (
            "SynchronousCommit",
            "PerfectFDCommit",
            "OptimisticFDCommit",
            "TwoPhaseCommit",
        ),
        "rates": ("CommitRateReport", "commit_rate", "compare_commit_rates"),
    },
)

__all__ = [
    "COMMIT",
    "ABORT",
    "check_nbac_run",
    "check_commit_obligation",
    "SynchronousCommit",
    "PerfectFDCommit",
    "OptimisticFDCommit",
    "TwoPhaseCommit",
    "CommitRateReport",
    "commit_rate",
    "compare_commit_rates",
]
