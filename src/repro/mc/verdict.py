"""Machine-checked verdicts and replayable witnesses.

A :class:`Verdict` is the checker's durable output: which property was
checked over which bounded space, whether it ``HOLDS`` or is
``REFUTED``, the *scope* of the claim (``"exhaustive"`` for closed
schedule/Λ frontiers, ``"grid"`` for the sampled emulation grids), and
the frontier statistics that justify it — states visited, revisits and
dominated schedules pruned, leaves executed.  Verdicts JSON round-trip
(``to_dict``/``from_dict``) so runs can archive and diff them.

A ``REFUTED`` verdict embeds witnesses in the *fuzz counterexample
format* (plus a ``"property"`` field naming what they refute): the
same schema ``repro fuzz --out`` emits, so a witness written to disk
replays through ``repro replay --repro FILE`` and loads with
:func:`repro.fuzz.campaign.load_counterexample` — the checker is a
client of the existing counterexample pipeline, not a fourth format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import ConfigurationError
from repro.inject import active_injection
from repro.runtime.request import ExecutionRequest
from repro.serialize import REPRO_KIND, REPRO_SCHEMA

#: Verdict file format marker.
VERDICT_KIND = "mc-verdict"
VERDICT_SCHEMA = 1


@dataclass
class Verdict:
    """One property's machine-checked verdict over one bounded space."""

    property_name: str
    holds: bool
    scope: str  # "exhaustive" | "grid"
    algorithm: str
    n: int
    t: int
    model: str | None
    horizon: int
    engine: str
    reduce: bool
    stats: dict[str, Any] = field(default_factory=dict)
    details: dict[str, Any] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    witnesses: list[dict[str, Any]] = field(default_factory=list)

    @property
    def label(self) -> str:
        """The headline: ``HOLDS(exhaustive)``, ``HOLDS(grid)``, ``REFUTED``."""
        return f"HOLDS({self.scope})" if self.holds else "REFUTED"

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": VERDICT_KIND,
            "schema": VERDICT_SCHEMA,
            "property": self.property_name,
            "verdict": self.label,
            "holds": self.holds,
            "scope": self.scope,
            "algorithm": self.algorithm,
            "n": self.n,
            "t": self.t,
            "model": self.model,
            "horizon": self.horizon,
            "engine": self.engine,
            "reduce": self.reduce,
            "injected_bug": active_injection(),
            "stats": self.stats,
            "details": self.details,
            "problems": self.problems,
            "witnesses": self.witnesses,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Verdict":
        if data.get("kind") != VERDICT_KIND:
            raise ConfigurationError(
                f"not an {VERDICT_KIND} document (kind={data.get('kind')!r})"
            )
        return cls(
            property_name=data["property"],
            holds=data["holds"],
            scope=data["scope"],
            algorithm=data["algorithm"],
            n=data["n"],
            t=data["t"],
            model=data.get("model"),
            horizon=data["horizon"],
            engine=data["engine"],
            reduce=data.get("reduce", True),
            stats=dict(data.get("stats", {})),
            details=dict(data.get("details", {})),
            problems=list(data.get("problems", ())),
            witnesses=list(data.get("witnesses", ())),
        )

    def to_json(self) -> str:
        return json.dumps(
            self.to_dict(), indent=2, sort_keys=True, default=repr
        )

    def describe(self) -> str:
        lines = [
            f"{self.property_name} [{self.algorithm} n={self.n} t={self.t}"
            + (f" {self.model}" if self.model else "")
            + f" horizon={self.horizon} engine={self.engine}"
            + ("" if self.reduce else " no-reduce")
            + f"]: {self.label}"
        ]
        stats = self.stats
        if stats:
            lines.append(
                "  frontier: "
                f"{stats.get('states_visited', 0)} states, "
                f"{stats.get('leaves', stats.get('cells', 0))} leaves/cells, "
                f"{stats.get('revisit_pruned', 0)} revisits pruned, "
                f"{stats.get('dominance_pruned', 0)} dominated choices pruned"
            )
        for key, value in sorted(self.details.items()):
            lines.append(f"  {key}: {value}")
        lines.extend(f"  {problem}" for problem in self.problems)
        if self.witnesses:
            lines.append(
                f"  {len(self.witnesses)} witness(es) "
                "(fuzz-counterexample format; replay with "
                "`repro replay --repro FILE`)"
            )
        return "\n".join(lines)


def witness_document(
    *,
    property_name: str,
    original: ExecutionRequest,
    shrunk: ExecutionRequest,
    problems: list[str],
    shrink_attempts: int = 0,
) -> dict[str, Any]:
    """A REFUTED witness in the fuzz counterexample format.

    ``kind``/``schema``/``request`` fields match ``repro fuzz --out``
    files exactly, so the document replays via ``repro replay --repro``
    and loads with the existing loader; the extra ``property`` field
    records which checker property the run refutes.
    """
    return {
        "kind": REPRO_KIND,
        "schema": REPRO_SCHEMA,
        "property": property_name,
        "injected_bug": active_injection(),
        "oracles": [f"mc:{property_name}"],
        "problems": [
            {"oracle": f"mc:{property_name}", "problems": list(problems)}
        ],
        "request": shrunk.to_dict(),
        "original": original.to_dict(),
        "shrink_attempts": shrink_attempts,
    }
