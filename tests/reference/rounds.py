"""Reference semantics of the round models RS and RWS (paper §4).

The engines under ``src/repro`` share one round step.  This module is
the second opinion: it is written from the model definitions alone and
imports nothing from ``repro.rounds``, ``repro.mc`` or ``repro.vector``.

* **A round.** Every process alive at the start of round ``r`` applies
  ``msgs_i`` to its state.  The messages that reach the network are
  delivered, and every process that completes the round applies
  ``trans_i`` to its state and the vector it received.  A process that
  completes a round receives its own message.
* **Crashes.** A process crashing in round ``r`` reaches only part of
  its addressees (``sent_to``).  It completes the round — and may
  decide — only if it applies its transition, and it never starts
  round ``r + 1``.
* **Round synchrony (RS).** If ``p_i`` is alive at the end of round
  ``r`` and receives no round-``r`` message from ``p_j``, then ``p_j``
  failed before sending it: every message that reaches the network is
  delivered, and no message is pending.
* **Weak round synchrony (RWS).** A message that reaches the network
  may stay *pending* — never delivered — but if its recipient is alive
  at the end of the round, its sender crashes by the end of the next
  round.

Algorithms enter duck-typed through the ``RoundAlgorithm`` methods
(``initial_state``, ``messages``, ``transition``, ``decision_of``).
Scenarios enter through their fields: ``crashes``, each with ``pid``,
``round``, ``sent_to`` and ``applies_transition``, and ``pending``,
each with ``sender``, ``recipient`` and ``round``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence


@dataclass(frozen=True)
class Round:
    """The traffic of one round."""

    index: int
    #: ``(sender, recipient) -> payload`` of every message that reached
    #: the network.
    sent: dict[tuple[int, int], Any]
    #: ``recipient -> {sender: payload}`` of every delivered message.
    delivered: dict[int, dict[int, Any]]


@dataclass
class ReferenceRun:
    """Every process's state sequence under one scenario.

    ``states[pid][r]`` is ``pid``'s state after round ``r`` (``r = 0``:
    its initial state), ``None`` once it has crashed without completing
    round ``r``.
    """

    n: int
    scenario: Any
    states: list[list[Any]]
    rounds: list[Round] = field(default_factory=list)

    def decisions(self, algorithm: Any) -> dict[int, tuple[int, Any]]:
        """``pid -> (round, value)`` of each process's first decision."""
        decided: dict[int, tuple[int, Any]] = {}
        for pid, sequence in enumerate(self.states):
            for r, state in enumerate(sequence[1:], start=1):
                value = None if state is None else algorithm.decision_of(state)
                if value is not None:
                    decided[pid] = (r, value)
                    break
        return decided


def _completes(crash: Any, r: int) -> bool:
    """Whether a process with ``crash`` (``None``: correct) is alive at
    the end of round ``r``."""
    if crash is None or crash.round > r:
        return True
    return crash.round == r and crash.applies_transition


def model_problems(scenario: Any, model: str) -> list[str]:
    """Why ``scenario`` is not a run of ``model`` (empty: it is)."""
    crash_of = {crash.pid: crash for crash in scenario.crashes}
    problems: list[str] = []
    for message in scenario.pending:
        where = (
            f"r{message.round}:{message.sender}->{message.recipient}"
        )
        if model == "RS":
            problems.append(f"round synchrony: {where} is pending")
            continue
        sender = crash_of.get(message.sender)
        if _completes(crash_of.get(message.recipient), message.round) and (
            sender is None or sender.round > message.round + 1
        ):
            problems.append(
                f"weak round synchrony: {where} is pending but its "
                f"sender does not crash by round {message.round + 1}"
            )
    return problems


def run(
    algorithm: Any,
    values: Sequence[Any],
    scenario: Any,
    *,
    t: int,
    model: str,
    rounds: int,
) -> ReferenceRun:
    """Execute ``rounds`` rounds of ``algorithm`` from ``values``.

    Raises ``ValueError`` when ``scenario`` is not admissible in
    ``model`` (``"RS"`` or ``"RWS"``).
    """
    problems = model_problems(scenario, model)
    if problems:
        raise ValueError("; ".join(problems))
    n = len(values)
    crash_of = {crash.pid: crash for crash in scenario.crashes}
    pending = {
        (message.round, message.sender, message.recipient)
        for message in scenario.pending
    }
    state = [algorithm.initial_state(p, n, t, values[p]) for p in range(n)]
    reference = ReferenceRun(
        n=n, scenario=scenario, states=[[s] for s in state]
    )
    starting = set(range(n))
    for r in range(1, rounds + 1):
        crashing = {
            p: crash_of[p]
            for p in starting
            if p in crash_of and crash_of[p].round == r
        }
        completing = {
            p for p in starting if _completes(crashing.get(p), r)
        }
        sent: dict[tuple[int, int], Any] = {}
        for p in sorted(starting):
            for q, payload in algorithm.messages(p, state[p]).items():
                if p not in crashing or q in crashing[p].sent_to or (
                    q == p and p in completing
                ):
                    sent[(p, q)] = payload
        delivered: dict[int, dict[int, Any]] = {q: {} for q in range(n)}
        for (p, q), payload in sent.items():
            if (r, p, q) not in pending:
                delivered[q][p] = payload
        for p in range(n):
            if p in completing:
                state[p] = algorithm.transition(p, state[p], delivered[p])
                reference.states[p].append(state[p])
            else:
                reference.states[p].append(None)
        reference.rounds.append(Round(index=r, sent=sent, delivered=delivered))
        starting -= set(crashing)
    return reference
