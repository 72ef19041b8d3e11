"""Harness adapters: one ``execute`` seam over every engine.

The repo has four ways to run an algorithm — the RS/RWS round executor,
and the two step-kernel emulations (RS on SS, RWS on SP), each with its
own signature.  A :class:`Harness` adapts one engine to the uniform
``(request, observer) -> engine-native run`` shape, where ``observer``
is the :class:`~repro.obs.events.EventLog` the engine records into (or
``None``), and :func:`execute_request` wraps any harness with the
standard instrumentation (one logical-clock event log, whose trace the
result's metrics are folded from) and lifts the outcome into an
:class:`~repro.runtime.request.ExecutionResult`.

``execute_request`` is deliberately a module-level function of one
picklable argument: it is the unit of work a ``multiprocessing`` pool
ships to workers.
"""

from __future__ import annotations

import random
from typing import Any, Mapping, Protocol, Sequence

from repro.errors import ConfigurationError
from repro.obs.events import EventLog, logical_clock
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
    #: Whether a run is a function of its request.  A sweep executes
    #: equal cells of a deterministic harness once
    #: (:func:`repro.runtime.sweep.execute_cells`); ``False`` opts out.
    deterministic: bool

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
    deterministic = True

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
    correct = trace.run.pattern.correct
    latency: int | None = 0
    for pid in correct:
        entry = decisions.get(pid)
        if entry is None:
            latency = None
            break
        latency = max(latency, entry[0])
    return decisions, latency, trace.num_rounds


class _EmulationHarness:
    """A round model emulated on its step kernel (Section 4); the
    engine name picks ``repro.emulation.emulate_<engine>``."""

    engine: str
    #: The step schedulers draw from ``random.Random(request.seed)``.
    deterministic = True

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


class VectorHarness:
    """The columnar batch kernel behind the uniform interface.

    Runs the same RS/RWS round semantics as :class:`RoundHarness`, but
    batched: a group of cells sharing a scenario shares one value-free
    executor run, and their values go through it as bitmasks in one
    call (see :func:`execute_batch`).  Single-cell execution appends
    the group's template, filled with the cell's decide values, to the
    log, so traces are byte-identical to the object engine's; cells the
    kernel cannot take fall back to the object executor transparently.
    """

    engine = "vector"
    deterministic = True

    def execute(
        self, request: ExecutionRequest, observer: EventLog | None
    ) -> Any:
        from repro.vector.engine import execute_vector_request

        return execute_vector_request(request, observer)

    def summarize(self, run: Any):
        # VectorRun and the fallback's RoundRun share this shape.
        return dict(run.decisions), run.latency(), run.num_rounds

    def extras(self, run: Any) -> dict[str, Any]:
        from repro.vector.engine import FallbackRun

        if isinstance(run, FallbackRun):
            return {"vector_fallback": run.reason}
        return {}


class LiveHarness:
    """The asyncio cluster runtime (heartbeat-built P) behind the seam.

    The run is wall-clock nondeterministic; its trace is serialized
    into logical order post-hoc and replayed into the log, so the
    same oracle suite that checks the logical engines checks live runs.
    Each run is a wall-clock sample, so equal cells are never folded
    into one.
    """

    engine = "live"
    deterministic = False

    def execute(
        self, request: ExecutionRequest, observer: EventLog | None
    ) -> Any:
        from repro.live.harness import run_live_request

        return run_live_request(request, observer=observer)

    def summarize(self, run: Any):
        return dict(run.decisions), run.latency, run.num_rounds

    def extras(self, run: Any) -> dict[str, Any]:
        return {"live": run.stats_dict()}


#: Engine name → harness singleton.  Harnesses are stateless, so one
#: instance serves every worker.
HARNESSES: Mapping[str, Any] = {
    harness.engine: harness
    for harness in (
        RoundHarness(),
        SSEmulationHarness(),
        SPEmulationHarness(),
        LiveHarness(),
        VectorHarness(),
    )
}


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
    A caller that wants the run's log itself (a wall clock, the
    engine-native run) calls
    ``harness_for(request.engine).execute(request, log)``.
    """
    harness = harness_for(request.engine)
    log = EventLog(clock=logical_clock())
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
    """Execute many cells at once, batching where an engine supports it.

    The batch seam behind :class:`~repro.runtime.sweep.SweepRunner`:
    ``engine="vector"`` cells are grouped by shared scenario and run
    through the columnar kernel in whole-batch calls; every other cell
    — including a vector cell the kernel declined, which then falls
    back inside :class:`VectorHarness` — goes through
    :func:`execute_request` one at a time.  Results come
    back in input order and are byte-identical — events, metrics, cache
    keys — to executing each request individually, so result caching
    and the trace oracles are oblivious to the batching.
    """
    vector_indices = [
        index
        for index, request in enumerate(requests)
        if request.engine == "vector"
    ]
    results: list[ExecutionResult | None] = [None] * len(requests)
    if vector_indices:
        from repro.vector.engine import execute_vector_batch

        batched = execute_vector_batch(
            [requests[index] for index in vector_indices]
        )
        for index, result in zip(vector_indices, batched):
            results[index] = result
    for index, request in enumerate(requests):
        if results[index] is None:
            results[index] = execute_request(request)
    return [result for result in results if result is not None]
