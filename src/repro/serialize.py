"""JSON round-trips for the library's adversary objects.

Scenarios and failure patterns travel inside execution requests, cache
records and counterexample files, so every engine imports this module:
it is a leaf over the scenario and pattern types.

Only *data* objects are serialised.  Runs and histories are deliberately
excluded: they embed arbitrary application payloads and (for histories)
functions; persist the scenario + seed instead and re-execute — the
library is deterministic by construction.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConfigurationError
from repro.failures.pattern import FailurePattern
from repro.rounds.scenario import CrashEvent, FailureScenario, PendingMessage

#: Format marker of a replayable counterexample file: what ``repro fuzz
#: --out`` and ``repro mc --out`` write and ``repro replay --repro`` reads.
REPRO_KIND = "fuzz-counterexample"
REPRO_SCHEMA = 1


# -- failure scenarios --------------------------------------------------------


def scenario_to_dict(scenario: FailureScenario) -> dict[str, Any]:
    """A stable, JSON-ready form of a failure scenario."""
    return {
        "n": scenario.n,
        "crashes": [
            {
                "pid": event.pid,
                "round": event.round,
                "sent_to": sorted(event.sent_to),
                "applies_transition": event.applies_transition,
            }
            for event in sorted(scenario.crashes, key=lambda e: e.pid)
        ],
        "pending": [
            {
                "sender": pend.sender,
                "recipient": pend.recipient,
                "round": pend.round,
            }
            for pend in sorted(
                scenario.pending,
                key=lambda m: (m.round, m.sender, m.recipient),
            )
        ],
    }


def scenario_from_dict(data: dict[str, Any]) -> FailureScenario:
    """Inverse of :func:`scenario_to_dict`."""
    try:
        crashes = tuple(
            CrashEvent(
                pid=entry["pid"],
                round=entry["round"],
                sent_to=frozenset(entry.get("sent_to", ())),
                applies_transition=entry.get("applies_transition", False),
            )
            for entry in data.get("crashes", ())
        )
        pending = frozenset(
            PendingMessage(
                sender=entry["sender"],
                recipient=entry["recipient"],
                round=entry["round"],
            )
            for entry in data.get("pending", ())
        )
        return FailureScenario(n=data["n"], crashes=crashes, pending=pending)
    except KeyError as missing:
        raise ConfigurationError(
            f"scenario dict is missing the {missing} field"
        ) from None


# -- failure patterns ---------------------------------------------------------


def pattern_to_dict(pattern: FailurePattern) -> dict[str, Any]:
    """A stable, JSON-ready form of a step-model failure pattern."""
    return {
        "n": pattern.n,
        "crash_times": {
            str(pid): time
            for pid, time in sorted(pattern.crash_times.items())
        },
    }


def pattern_from_dict(data: dict[str, Any]) -> FailurePattern:
    """Inverse of :func:`pattern_to_dict`."""
    try:
        return FailurePattern(
            n=data["n"],
            crash_times={
                int(pid): time
                for pid, time in data.get("crash_times", {}).items()
            },
        )
    except KeyError as missing:
        raise ConfigurationError(
            f"pattern dict is missing the {missing} field"
        ) from None
