"""The perfect failure detector ``P``.

A failure detector class is defined axiomatically by a *completeness*
property and an *accuracy* property (Chandra & Toueg, JACM 1996 — the
paper's reference [6]).  ``P`` is the strongest class of their
hierarchy and the one that defines the SP model studied by the paper:

================  ==============================================
strong completeness   eventually every crashed process is permanently
                      suspected by **every** correct process
strong accuracy       no process is suspected before it crashes
================  ==============================================

The detector here is a *generator* of histories: given a failure
pattern it produces a compatible history, optionally randomized.  The
randomness models the adversary's freedom inside the axioms — the
detection delay of each crash is finite but arbitrary, which is
exactly the slack Theorem 3.1 exploits.
"""

from __future__ import annotations

import random

from repro.errors import ConfigurationError
from repro.failures.history import FailureDetectorHistory, FunctionHistory
from repro.failures.pattern import FailurePattern
from repro.obs.profile import profiled


def _crash_detection_times(
    pattern: FailurePattern,
    horizon: int,
    rng: random.Random | None,
    max_delay: int,
) -> dict[tuple[int, int], int]:
    """Pick, per (observer, crashed) pair, the suspicion onset time.

    Detection is never earlier than the crash itself (strong accuracy)
    and, for a crash at or before ``horizon``, never later than
    ``horizon`` (so completeness is visible within the finite history).
    """
    onsets: dict[tuple[int, int], int] = {}
    with profiled("detectors.crash_detection_times"):
        for crashed, crash_time in pattern.crash_times.items():
            for observer in range(pattern.n):
                if rng is None:
                    delay = 0
                else:
                    delay = rng.randint(0, max_delay)
                onset = crash_time + min(delay, max(0, horizon - crash_time))
                onsets[(observer, crashed)] = onset
    return onsets


class PerfectDetector:
    """``P``: strong completeness + strong accuracy.

    Suspects a process iff it has crashed; each (observer, crashed)
    pair gets an arbitrary finite detection delay.  The unbounded delay
    is the essential difference from the synchronous model: SS detects
    crashes within ``Φ+1+Δ`` steps, ``P`` merely *eventually*.
    """

    def __init__(self, max_delay: int = 50) -> None:
        if max_delay < 0:
            raise ConfigurationError("max_delay must be non-negative")
        self.max_delay = max_delay

    def history(
        self,
        pattern: FailurePattern,
        *,
        horizon: int = 1_000,
        rng: random.Random | None = None,
    ) -> FailureDetectorHistory:
        """Return one history of ``P`` for ``pattern``.

        ``horizon`` bounds the detection of every crash at or before
        it.  ``rng`` draws the detection delays; ``None`` yields the
        canonical history (zero delay).
        """
        onsets = _crash_detection_times(pattern, horizon, rng, self.max_delay)

        def suspects(pid: int, t: int) -> frozenset[int]:
            return frozenset(
                q
                for q in pattern.faulty
                if onsets[(pid, q)] <= t
            )

        return FunctionHistory(suspects)
