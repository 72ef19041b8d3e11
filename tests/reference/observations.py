"""What a process observes at each step of a step-level run.

Two runs are indistinguishable to a process when it makes the same
observations in both: the same sequence of (received payloads,
failure-detector values) at its steps.  A deterministic automaton must
then behave identically — the cornerstone of Theorem 3.1, whose four
runs are pairwise indistinguishable to the receiver.

This is the step-level oracle read straight off a
:class:`~repro.simulation.run.Run` (payloads included, which a trace
does not carry); the tests check it against
:func:`repro.obs.diff.local_view` over the same runs' recorded traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.simulation.run import Run


@dataclass(frozen=True)
class Observation:
    """What a process observes in one of its steps."""

    payloads: tuple[Any, ...]
    suspects: frozenset[int] | None


def observations(run: Run, pid: int) -> list[Observation]:
    """The observation sequence of ``pid`` in ``run``.

    Payload order within a step follows delivery order (deterministic
    in the kernel); sender identities are visible through payloads only
    if the algorithm put them there, matching the model where a process
    sees message contents, not channel metadata.
    """
    return [
        Observation(
            payloads=tuple(
                run.messages[uid].payload for uid in step.received_uids
            ),
            suspects=step.suspects,
        )
        for step in run.schedule
        if step.pid == pid
    ]


def first_divergence(
    run_a: Run, run_b: Run, pid: int
) -> tuple[int, Observation | None, Observation | None] | None:
    """Locate where ``pid``'s observations split, or ``None`` if never.

    Returns ``(index, obs_a, obs_b)`` for the first differing local
    step.  Compares up to the length of the shorter sequence, since one
    run may be a decided-and-stopped prefix of the other — the paper's
    "indistinguishable until p_j decides".
    """
    a = observations(run_a, pid)
    b = observations(run_b, pid)
    for index in range(min(len(a), len(b))):
        if a[index] != b[index]:
            return index, a[index], b[index]
    return None
