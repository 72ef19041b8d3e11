"""Lift an emulated step-level trace to a round-model failure scenario.

The emulations (RS on SS, RWS on SP) and the direct round executors are
two implementations of the same abstraction; this module ties them
together.  From an emulated trace we *induce* the round-level
:class:`~repro.rounds.scenario.FailureScenario` its step-level crash
pattern realised — which round each faulty process died in, which
recipients its last broadcast reached, whether it completed that
round's transition, and (for SP) which sent messages went unused
(pending).  Re-executing the algorithm under the induced scenario in
the plain round executor must reproduce the emulated decisions; the
test suite uses exactly this as a cross-validation of both engines.
"""

from __future__ import annotations

from repro.emulation.synchronizer import EmulatedRoundTrace
from repro.rounds.scenario import CrashEvent, FailureScenario, PendingMessage


def induced_scenario(trace: EmulatedRoundTrace) -> FailureScenario:
    """Derive the round-level scenario an emulated trace realised.

    For each faulty process the crash event is reconstructed from what
    it *did*: the last round whose transition it applied and the
    recipients of its sends in the following (partial) round.  Pending
    messages are the sent-but-unused triples — the same extraction
    Lemma 4.1's validator uses.
    """
    pattern = trace.run.pattern
    n = trace.n

    crashes: list[CrashEvent] = []
    for pid in sorted(pattern.faulty):
        completed = trace.completed_rounds.get(pid, 0)
        crash_round = completed + 1
        reached = frozenset(
            recipient
            for sender, recipient, round_index in trace.sent_index
            if sender == pid and round_index == crash_round
        )
        others = frozenset(q for q in range(n) if q != pid)
        if completed >= trace.num_rounds:
            # Crashed only after finishing every emulated round: at the
            # round level it is indistinguishable from a correct process
            # within the horizon, but the crash is part of the pattern,
            # so record it as a post-horizon transition-completing event.
            crashes.append(
                CrashEvent(
                    pid=pid,
                    round=trace.num_rounds,
                    sent_to=others,
                    applies_transition=True,
                )
            )
            continue
        crashes.append(
            CrashEvent(pid=pid, round=crash_round, sent_to=reached)
        )

    return FailureScenario(
        n=n,
        crashes=tuple(crashes),
        pending=frozenset(
            PendingMessage(*triple) for triple in trace.pending_triples()
        ),
    )
