"""Post-hoc validators for the round-synchrony properties (paper §4).

The executors are *believed* to implement RS and RWS; these validators
re-derive the two synchrony properties from a finished run's round
records, so the test suite can cross-check an execution against an
independent reading of the definitions (Lemma 4.1's statement is
exactly :func:`check_weak_round_synchrony`).

A run is duck-typed: ``n``, ``scenario`` (answering ``alive_at_start``,
``alive_at_end`` and ``crash_round``) and ``rounds``, each with
``index``, ``sent`` (``(sender, recipient) -> payload``) and
``delivered`` (``recipient -> {sender: payload}``).  The engine's
``RoundRun`` and :class:`tests.reference.rounds.ReferenceRun` both are.
"""

from __future__ import annotations

from typing import Any, Iterator


def _missed(run: Any) -> Iterator[tuple[int, int, int]]:
    """``(round, sender, recipient)`` of every message that was sent
    but not received by a recipient alive throughout its round."""
    scenario = run.scenario
    for record in run.rounds:
        r = record.index
        for pi in range(run.n):
            if not scenario.alive_at_end(pi, r):
                continue
            if not scenario.alive_at_start(pi, r):
                continue
            for pj in range(run.n):
                if pj == pi:
                    continue
                was_sent = (pj, pi) in record.sent
                was_received = pj in record.delivered.get(pi, {})
                if was_sent and not was_received:
                    yield r, pj, pi


def check_round_synchrony(run: Any) -> list[str]:
    """Check RS round synchrony on a finished run.

    Property: if ``p_i`` is alive at the end of round ``r`` and does not
    receive a message from ``p_j`` at round ``r``, then ``p_j`` failed
    before sending a message to ``p_i`` at round ``r``.

    Violations are reported as strings; an empty list means the
    property holds on every round of the trace.
    """
    return [
        f"round {r}: p{pi} (alive at end of round) missed a "
        f"message that p{pj} did send"
        for r, pj, pi in _missed(run)
    ]


def check_weak_round_synchrony(run: Any) -> list[str]:
    """Check RWS weak round synchrony on a finished run.

    Property: if ``p_i`` is alive at the end of round ``r`` and does not
    receive a message from ``p_j`` at round ``r`` although ``p_j`` sent
    one (a *pending* message), then ``p_j`` crashes by the end of round
    ``r + 1``.
    """
    violations: list[str] = []
    for r, pj, pi in _missed(run):
        crash_round = run.scenario.crash_round(pj)
        if crash_round is None or crash_round > r + 1:
            violations.append(
                f"round {r}: message p{pj}->p{pi} is pending "
                f"but p{pj} does not crash by round {r + 1}"
            )
    return violations
