"""Deterministic replay: from a JSONL trace back to an executable run.

A round-model trace is a complete description of the adversary's
decisions — who crashed in which round (``crash``, with the
``applies_transition`` bit in ``value``), which recipients a crashing
broadcast reached (the crash round's ``msg_sent`` events), and which
sent messages were withheld (``msg_withheld``).  That is precisely a
:class:`~repro.rounds.scenario.FailureScenario`, so a trace can be
*re-executed*: reconstruct the scenario, run the same algorithm from
the same values through the round executor, and assert event-for-event
equality.  An :class:`~repro.obs.events.EventLog` stamps a logical
clock, so the re-execution reproduces the exported JSONL byte-for-byte — the foundation for bug repro.

Imports from :mod:`repro.rounds` are deferred to call time:
``repro.rounds`` itself imports ``repro.obs`` submodules, and module-
level imports here would make the package import order circular.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.obs.events import Event, EventLog


def infer_model(events: Sequence[Event]) -> str:
    """``"RWS"`` when the trace contains withheld messages, else ``"RS"``.

    Sound for engine-produced traces: ``msg_withheld`` is the one kind
    that cannot occur under round synchrony.
    """
    return (
        "RWS"
        if any(event.kind == "msg_withheld" for event in events)
        else "RS"
    )


def reconstruct_scenario(events: Sequence[Event]) -> Any:
    """Rebuild the :class:`FailureScenario` a round-model trace ran under.

    Crash rounds come from ``crash`` events; ``sent_to`` is read off
    the crash round's actual ``msg_sent`` events (for a process that
    applied its transition the paper requires a complete send, so the
    full set is restored); pending messages come from ``msg_withheld``.

    Raises :class:`ValueError` when the trace carries no ``round_start``
    event — step-model traces do not describe a round scenario.
    """
    from repro.rounds.scenario import (
        CrashEvent,
        FailureScenario,
        PendingMessage,
    )

    n: int | None = None
    for event in events:
        if event.kind == "round_start" and isinstance(
            event.value, (list, tuple)
        ):
            n = len(event.value)
            break
    if n is None:
        raise ValueError(
            "not a round-model trace: no round_start event with an alive "
            "list to infer n from"
        )

    sent_by_round: dict[tuple[int, int], set[int]] = {}
    for event in events:
        if event.kind == "msg_sent" and event.round is not None:
            sent_by_round.setdefault((event.peer, event.round), set()).add(
                event.pid
            )

    crashes = []
    for event in events:
        if event.kind != "crash" or event.round is None:
            continue
        applies = event.value is True
        if applies:
            sent_to = frozenset(q for q in range(n) if q != event.pid)
        else:
            sent_to = frozenset(
                q
                for q in sent_by_round.get((event.pid, event.round), set())
                if q != event.pid
            )
        crashes.append(
            CrashEvent(
                pid=event.pid,
                round=event.round,
                sent_to=sent_to,
                applies_transition=applies,
            )
        )

    pending = frozenset(
        PendingMessage(event.peer, event.pid, event.round)
        for event in events
        if event.kind == "msg_withheld" and event.round is not None
    )
    return FailureScenario(n=n, crashes=tuple(crashes), pending=pending)


@dataclass
class ReplayReport:
    """The outcome of re-executing a trace."""

    scenario: Any
    model: str
    num_rounds: int
    original: list[Event]
    replayed: list[Event]
    run: Any

    @property
    def original_lines(self) -> list[str]:
        return [event.to_json() for event in self.original]

    @property
    def replayed_lines(self) -> list[str]:
        return [event.to_json() for event in self.replayed]

    @property
    def exact(self) -> bool:
        """Byte-for-byte equality of the serialized event streams."""
        return self.original_lines == self.replayed_lines

    @property
    def matches(self) -> bool:
        """Event-for-event equality ignoring timestamps."""
        return self.first_mismatch is None

    @property
    def first_mismatch(self) -> int | None:
        """Index of the first event differing modulo ``ts`` (or the
        length of the shorter stream when one is a prefix)."""

        def strip(event: Event) -> dict[str, Any]:
            data = event.to_dict()
            data.pop("ts", None)
            return data

        for index, (a, b) in enumerate(zip(self.original, self.replayed)):
            if strip(a) != strip(b):
                return index
        if len(self.original) != len(self.replayed):
            return min(len(self.original), len(self.replayed))
        return None

    def describe(self) -> str:
        head = (
            f"replayed {len(self.replayed)} events over {self.num_rounds} "
            f"rounds ({self.model}, scenario: {self.scenario.describe()})"
        )
        if self.exact:
            return head + "\n  event streams identical byte-for-byte"
        if self.matches:
            return head + "\n  event streams identical modulo timestamps"
        index = self.first_mismatch
        lines = [head, f"  first divergence at event {index}:"]
        for label, events in (("original", self.original), ("replay", self.replayed)):
            if index < len(events):
                lines.append(f"    {label}: {events[index].to_json()}")
            else:
                lines.append(f"    {label}: <trace ended>")
        return "\n".join(lines)


def replay_events(
    algorithm: Any,
    values: Sequence[Any],
    events: Sequence[Event],
    *,
    t: int,
    model: Any = None,
    max_rounds: int | None = None,
) -> ReplayReport:
    """Re-execute ``events`` and compare the streams.

    Args:
        algorithm: The round algorithm the trace was produced with.
        values: The run's initial values.
        events: The original trace (e.g. from
            :func:`~repro.obs.events.events_from_jsonl_lines`).
        t: Resilience parameter of the original run.
        model: ``"RS"``/``"RWS"``/:class:`RoundModel`; inferred from the
            trace when ``None``.
        max_rounds: Horizon; defaults to the number of rounds the trace
            shows.  The replay always executes exactly that many rounds
            (``run_all_rounds``), which reproduces both early-quiescent
            and horizon-bounded originals.
    """
    from repro.rounds.executor import RoundModel, execute

    scenario = reconstruct_scenario(events)
    model_name = getattr(model, "value", model)
    if model_name is None:
        model_name = infer_model(events)
    model_name = str(model_name).upper()
    round_model = RoundModel(model_name)

    rounds_seen = max(
        (
            event.round
            for event in events
            if event.kind == "round_start" and event.round is not None
        ),
        default=0,
    )
    horizon = max_rounds if max_rounds is not None else max(rounds_seen, 1)

    log = EventLog()
    # validate=False: a quiesced run's trace may truncate a scenario
    # whose remaining obligations (a pending sender's crash scheduled
    # past the last executed round) the validator would demand — the
    # trace itself is the authority here, and the event-stream equality
    # assertion is the correctness check.
    run = execute(
        algorithm,
        values,
        scenario,
        t=t,
        model=round_model,
        max_rounds=horizon,
        run_all_rounds=True,
        validate=False,
        observer=log,
    )
    return ReplayReport(
        scenario=scenario,
        model=model_name,
        num_rounds=run.num_rounds,
        original=list(events),
        replayed=list(log.events),
        run=run,
    )
