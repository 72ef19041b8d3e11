"""Harness adapters: one ``execute`` seam over every engine.

The repo has three ways to run an algorithm — the RS/RWS round
executor and the two step-kernel emulations (RS on SS, RWS on SP), each
with its own signature; ``"vector"`` is a second name for the round
executor.  A :class:`Harness` adapts one
engine to the uniform ``(request, observer) -> engine-native run``
shape, where ``observer`` is the :class:`~repro.obs.events.EventLog`
the engine records into (or ``None``), and :func:`execute_request`
wraps any harness with the standard instrumentation (one
logical-clock event log, whose trace the result's metrics are folded
from) and lifts the outcome into an
:class:`~repro.runtime.request.ExecutionResult`.

``execute_request`` is deliberately a module-level function of one
picklable argument: it is the unit of work a ``multiprocessing`` pool
ships to workers.
"""

from __future__ import annotations

import random
from typing import Any, Protocol, Sequence

from repro.consensus import clauses
from repro.errors import ConfigurationError
from repro.obs.events import EventLog
from repro.rounds import RoundModel
from repro.rounds.executor import execute as execute_rounds
from repro.runtime.registry import make_algorithm
from repro.runtime.request import ExecutionRequest, ExecutionResult


class Harness(Protocol):
    """Adapter protocol: run a request on one engine.

    Implementations return the engine's native run object; the caller
    extracts the uniform fields (decisions, latency, round count) via
    :meth:`summarize`.
    """

    engine: str

    def execute(
        self, request: ExecutionRequest, observer: EventLog | None
    ) -> Any:
        """Run the request's cell, recording its events into ``observer``."""
        ...

    def summarize(self, run: Any) -> tuple[dict[int, tuple[int, Any]], int | None, int]:
        """``(decisions, latency, num_rounds)`` of a native run."""
        ...

    def extras(self, run: Any) -> dict[str, Any]:
        """Engine-specific structured facts for ``ExecutionResult.extra``."""
        ...


class RoundHarness:
    """The RS/RWS round executor behind the uniform interface."""

    engine = "rounds"

    def execute(
        self, request: ExecutionRequest, observer: EventLog | None
    ) -> Any:
        return execute_rounds(
            make_algorithm(request.algorithm),
            request.values,
            request.scenario,
            t=request.t,
            model=RoundModel(request.model),
            max_rounds=request.max_rounds,
            observer=observer,
            **request.param_dict(),
        )

    def summarize(self, run: Any):
        return dict(run.decisions), run.latency(), run.num_rounds

    def extras(self, run: Any) -> dict[str, Any]:
        return {}


def _emulation_extras(trace: Any) -> dict[str, Any]:
    """The induced round scenario of an emulated trace, serialized.

    Computed once at execution time (the native trace with its step run
    is available only here) and carried on the result, so differential
    consumers — the fuzzer's emulation↔rounds oracles — can build the
    rounds-engine twin of an emulation cell from the cached result
    alone.
    """
    from repro.emulation.induce import induced_scenario
    from repro.serialize import scenario_to_dict

    return {"induced_scenario": scenario_to_dict(induced_scenario(trace))}


def _emulation_summary(trace: Any) -> tuple[dict[int, tuple[int, Any]], int | None, int]:
    """Uniform fields of an :class:`EmulatedRoundTrace`."""
    decisions = {
        pid: entry
        for pid, entry in trace.decisions.items()
        if entry is not None
    }
    latency = clauses.latency(decisions, trace.run.pattern.correct)
    return decisions, latency, trace.num_rounds


class _EmulationHarness:
    """A round model emulated on its step kernel (Section 4); the
    engine name picks ``repro.emulation.emulate_<engine>``; the step
    schedulers draw from ``random.Random(request.seed)``."""

    engine: str

    def execute(
        self, request: ExecutionRequest, observer: EventLog | None
    ) -> Any:
        import repro.emulation

        emulate = getattr(repro.emulation, f"emulate_{self.engine}")
        return emulate(
            make_algorithm(request.algorithm),
            request.values,
            request.pattern,
            t=request.t,
            num_rounds=request.max_rounds,
            rng=random.Random(request.seed),
            observer=observer,
            **request.param_dict(),
        )

    def summarize(self, trace: Any):
        return _emulation_summary(trace)

    def extras(self, trace: Any) -> dict[str, Any]:
        return _emulation_extras(trace)


class SSEmulationHarness(_EmulationHarness):
    """RS emulated on the SS step kernel (Section 4.1)."""

    engine = "rs_on_ss"


class SPEmulationHarness(_EmulationHarness):
    """RWS emulated on the SP step kernel (Section 4.2)."""

    engine = "rws_on_sp"


#: Engine name → harness singleton.  Harnesses are stateless, so one
#: instance serves every worker.
HARNESSES: dict[str, Any] = {
    harness.engine: harness
    for harness in (
        RoundHarness(),
        SSEmulationHarness(),
        SPEmulationHarness(),
    )
}
#: ``"vector"`` is a second name for the round executor: the ledger's
#: ``--engine vector`` campaigns and their pinned run ids name it
#: (ROADMAP 8(h) retires the spelling).
HARNESSES["vector"] = HARNESSES["rounds"]


def harness_for(engine: str):
    harness = HARNESSES.get(engine)
    if harness is None:
        raise ConfigurationError(
            f"no harness for engine {engine!r}; choose from "
            f"{sorted(HARNESSES)}"
        )
    return harness


def execute_request(request: ExecutionRequest) -> ExecutionResult:
    """Execute one cell under the standard instrumentation.

    Events are recorded with the deterministic logical clock (per-cell
    timestamps restart at 1.0), so the resulting trace is identical no
    matter which process — or how many sibling workers — executed it.
    A caller that wants the run's log itself (the engine-native run)
    calls ``harness_for(request.engine).execute(request, log)``.
    """
    harness = harness_for(request.engine)
    log = EventLog()
    run = harness.execute(request, log)
    decisions, latency, num_rounds = harness.summarize(run)
    return ExecutionResult(
        name=request.name,
        request_key=request.cache_key(),
        events=log.events,
        decisions=decisions,
        latency=latency,
        num_rounds=num_rounds,
        extra=harness.extras(run),
    )


def execute_batch(
    requests: Sequence[ExecutionRequest],
) -> list[ExecutionResult]:
    """:func:`execute_request` over ``requests``, in input order.  Kept
    as a name because the ledger's tracer wraps it (ROADMAP 8(a))."""
    return [execute_request(request) for request in requests]
