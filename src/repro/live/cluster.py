"""The live cluster orchestrator: tasks, faults, traces, load mode.

A :class:`LiveCluster` runs ``n`` processes as asyncio tasks over a
:class:`~repro.live.transport.LiveTransport`, with a
:class:`~repro.live.detector.HeartbeatService` building P (or ◊P) from
heartbeats, crash faults injected at configured wall-clock offsets, and
either the round adapter (:mod:`repro.live.rounds`, running any
registered :class:`~repro.rounds.algorithm.RoundAlgorithm` unmodified)
or the step adapter (:mod:`repro.live.steps`, driving Chandra–Toueg).

**Trace serialization.**  A live run is wall-clock nondeterministic, so
events are first collected as raw records and only *after* the run
serialized into a logical order the trace oracle accepts:

* rounds mode emits ``round_start 1..max_rounds`` groups; within a
  group, sends precede withheld notices precede deliveries precede
  decides precede crashes precede suspicions.  Withheld events are
  synthesized from sends that were never consumed; the synchronizer
  guarantees the Lemma 4.1 bound for them (see
  :mod:`repro.live.rounds`).  True suspicions are placed no earlier
  than their peer's crash group, so P's strong accuracy holds in trace
  order exactly when it held on the wall clock.
* steps mode (no global rounds) emits events in collection order with
  strictly increasing synthetic times.

Halts are emitted last in both modes: a live process's detector module
keeps observing after the algorithm halts, and trace order must not
put that activity after a ``halt`` event.

**Load mode.**  With ``sessions > 1`` the cluster runs many consensus
instances over the same transport and detector (event recording stays
on for session 0 only), gated by a concurrency limit — the throughput
benchmark's workload.
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.consensus import clauses
from repro.errors import ConfigurationError, ExecutionError
from repro.live.detector import HEARTBEAT, DetectorConfig, HeartbeatService
from repro.live.profiles import NetProfile
from repro.live.transport import LiveTransport, TransportStats
from repro.runtime.registry import ALGORITHM_FACTORIES, make_algorithm

#: Wire tags of algorithm traffic (heartbeats use ``detector.HEARTBEAT``).
ROUND_MSG = "rnd"
STEP_MSG = "stp"

#: Live-only algorithm key selecting the step-mode Chandra–Toueg adapter.
CHANDRA_TOUEG = "chandra-toueg"

#: Every algorithm key the live engine accepts.
LIVE_ALGORITHMS = tuple(sorted(ALGORITHM_FACTORIES)) + (CHANDRA_TOUEG,)


@dataclass(frozen=True)
class LiveConfig:
    """One live cluster run, completely described.

    Attributes:
        algorithm: A registry key (round adapter) or ``"chandra-toueg"``
            (step adapter).
        values: Initial value per process; fixes ``n``.
        profile: The network fault profile.
        t: Resilience parameter, forwarded to the algorithm.
        detector: Heartbeat service knobs.
        crash_at: ``(pid, seconds)`` crash faults, wall clock from
            cluster start.
        max_rounds: Round horizon (round adapter only).
        seed: Seed for the transport's drop/delay draws.
        sessions: Consensus instances to run (load mode when > 1).
        concurrency: Maximum sessions in flight at once.
        timeout_s: Hard wall-clock bound on the whole run.
        record_events: Collect raw events for session 0 (off for pure
            throughput runs).
    """

    algorithm: str
    values: tuple[Any, ...]
    profile: NetProfile
    t: int = 1
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    crash_at: tuple[tuple[int, float], ...] = ()
    max_rounds: int = 4
    seed: int = 0
    sessions: int = 1
    concurrency: int = 8
    timeout_s: float = 30.0
    record_events: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        n = len(self.values)
        if n < 2:
            raise ConfigurationError("a live cluster needs at least 2 processes")
        if not 0 <= self.t < n:
            raise ConfigurationError(f"need 0 <= t < n, got t={self.t}, n={n}")
        if self.algorithm not in LIVE_ALGORITHMS:
            raise ConfigurationError(
                f"unknown live algorithm {self.algorithm!r}; choose from "
                f"{list(LIVE_ALGORITHMS)}"
            )
        if self.algorithm == CHANDRA_TOUEG and n <= 2 * self.t:
            raise ConfigurationError(
                f"chandra-toueg needs n > 2t (got n={n}, t={self.t})"
            )
        faults = tuple(
            (int(pid), float(at_s)) for pid, at_s in self.crash_at
        )
        seen: set[int] = set()
        for pid, at_s in faults:
            if not 0 <= pid < n:
                raise ConfigurationError(f"crash pid {pid} out of range")
            if pid in seen:
                raise ConfigurationError(f"p{pid} crashes twice")
            if at_s < 0:
                raise ConfigurationError("crash times must be >= 0")
            seen.add(pid)
        object.__setattr__(
            self, "crash_at", tuple(sorted(faults, key=lambda f: f[1]))
        )
        if self.max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")
        if self.sessions < 1 or self.concurrency < 1:
            raise ConfigurationError("sessions and concurrency must be >= 1")
        if self.timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mode(self) -> str:
        """``"rounds"`` (synchronizer) or ``"steps"`` (Chandra–Toueg)."""
        return "steps" if self.algorithm == CHANDRA_TOUEG else "rounds"


@dataclass(frozen=True)
class RawEvent:
    """One wall-clock observation, before logical serialization.

    For message events ``pid`` is the *sender* and ``peer`` the
    recipient; for ``suspect`` events ``pid`` is the observing module
    and ``peer`` the suspected process.

    ``extra`` is the causal side channel the serializer forwards into
    the observer hooks: the record wall stamp plus, per event kind, the
    transport's message forensics (``msg_id``, attempts, retransmits)
    or the detector's suspicion forensics.
    """

    seq: int
    kind: str
    at_s: float
    pid: int
    peer: int | None = None
    round: int | None = None
    value: Any = None
    extra: Any = None


#: Within-group emission order of the rounds-mode serializer.
_ROUND_PRIORITY = {
    "msg_sent": 1,
    "msg_withheld": 2,
    "msg_delivered": 3,
    "decide": 4,
    "crash": 5,
    "suspect": 6,
}


@dataclass
class _Proc:
    """Mutable per-process runtime state shared by router and runners."""

    wake: asyncio.Event = field(default_factory=asyncio.Event)
    #: ``(session, round) -> sender -> (has_payload, payload, msg_id)``
    rounds: dict[tuple[int, int], dict[int, tuple[bool, Any, int | None]]] = (
        field(default_factory=dict)
    )
    #: ``session -> deque[Message]``
    steps: dict[int, deque] = field(default_factory=dict)
    #: ``session -> current round index`` (round adapter only)
    current_round: dict[int, int] = field(default_factory=dict)


@dataclass
class LiveRun:
    """Everything one live cluster run produced."""

    config: LiveConfig
    decisions: dict[int, tuple[int, Any]]
    all_decisions: dict[int, dict[int, tuple[int, Any]]]
    raw_events: list[RawEvent]
    crash_rounds: dict[int, int]
    crash_walls: dict[int, float]
    detector_summary: dict[str, Any]
    transport_stats: TransportStats
    duration_s: float
    sessions_completed: int
    #: ``session -> wall seconds`` from session launch to completion —
    #: the per-session decision-latency sample SLO percentiles judge.
    session_walls_s: dict[int, float] = field(default_factory=dict)

    @property
    def correct(self) -> list[int]:
        """Processes that never crashed (ground truth, not suspicion)."""
        return [p for p in range(self.config.n) if p not in self.crash_walls]

    @property
    def latency(self) -> int | None:
        """Rounds until every correct process decided (session 0)."""
        return clauses.latency(self.decisions, self.correct)

    @property
    def num_rounds(self) -> int:
        if self.config.mode == "rounds":
            return self.config.max_rounds
        return max((entry[0] for entry in self.decisions.values()), default=0)

    def total_decisions(self) -> int:
        return sum(len(entries) for entries in self.all_decisions.values())

    def session_latencies_ms(self) -> list[float]:
        """Per-session wall decision latencies, in milliseconds."""
        return [
            1000.0 * wall
            for _, wall in sorted(self.session_walls_s.items())
        ]

    def detection_delays_ms(self) -> list[float]:
        """True-detection delays (wall ms), from the detector summary."""
        delays = self.detector_summary.get("detection_delay_samples_ms")
        return list(delays) if delays else []

    def stats_dict(self) -> dict[str, Any]:
        from repro.obs.report import percentile_summary

        duration = max(self.duration_s, 1e-9)
        return {
            "profile": self.config.profile.name,
            "algorithm": self.config.algorithm,
            "mode": self.config.mode,
            "detector": self.config.detector.kind,
            "sessions": self.config.sessions,
            "sessions_completed": self.sessions_completed,
            "duration_s": round(self.duration_s, 6),
            "decisions": self.total_decisions(),
            "decisions_per_s": round(self.total_decisions() / duration, 3),
            "crash_walls_s": {
                pid: round(at, 6) for pid, at in sorted(self.crash_walls.items())
            },
            "session_latency_ms": percentile_summary(
                self.session_latencies_ms()
            ),
            "detector_quality": self.detector_summary,
            "transport": self.transport_stats.to_dict(),
        }

    # -- logical serialization ----------------------------------------------

    def replay_into(self, observer: Any) -> None:
        """Emit the run's trace into ``observer`` in a checker-valid order."""
        if observer is None or not self.raw_events:
            return
        if self.config.mode == "rounds":
            self._replay_rounds(observer)
        else:
            self._replay_steps(observer)

    def _replay_rounds(self, observer: Any) -> None:
        horizon = self.config.max_rounds
        crash_round = dict(self.crash_rounds)

        sent: set[tuple[int, int, int]] = set()
        consumed: set[tuple[int, int, int]] = set()
        send_extra: dict[tuple[int, int, int], Any] = {}
        for raw in self.raw_events:
            if raw.kind == "msg_sent":
                sent.add((raw.round, raw.pid, raw.peer))
                send_extra[(raw.round, raw.pid, raw.peer)] = raw.extra
            elif raw.kind == "msg_delivered":
                consumed.add((raw.round, raw.pid, raw.peer))

        groups: dict[int, list[tuple[int, int, RawEvent]]] = {
            r: [] for r in range(1, horizon + 1)
        }
        halts: list[RawEvent] = []
        for raw in self.raw_events:
            if raw.kind == "halt":
                halts.append(raw)
                continue
            group = self._rounds_group_of(raw, crash_round, horizon)
            groups[group].append((_ROUND_PRIORITY[raw.kind], raw.seq, raw))

        # A send its recipient never consumed is exactly a withheld
        # message of the RWS model; the synchronizer bounds the sender's
        # crash round (Lemma 4.1), which the oracle re-verifies.
        synth = len(self.raw_events)
        for round_index, sender, recipient in sorted(sent - consumed):
            synth += 1
            origin = send_extra.get((round_index, sender, recipient))
            extra = None
            if isinstance(origin, dict) and "msg_id" in origin:
                # The withheld notice inherits the send's identity so
                # the happens-before graph links it to its message.
                extra = {"msg_id": origin["msg_id"]}
            raw = RawEvent(
                seq=synth,
                kind="msg_withheld",
                at_s=0.0,
                pid=sender,
                peer=recipient,
                round=round_index,
                extra=extra,
            )
            groups[round_index].append((_ROUND_PRIORITY[raw.kind], synth, raw))

        for round_index in range(1, horizon + 1):
            alive = [
                pid
                for pid in range(self.config.n)
                if crash_round.get(pid, horizon + 1) >= round_index
            ]
            observer.round_start(round_index, alive)
            for _, _, raw in sorted(groups[round_index], key=lambda e: e[:2]):
                self._emit_round_event(observer, raw)
        for raw in sorted(halts, key=lambda r: r.seq):
            observer.halt(raw.pid, round_index=horizon)

    def _rounds_group_of(
        self, raw: RawEvent, crash_round: dict[int, int], horizon: int
    ) -> int:
        base = raw.round if raw.round is not None else 1
        if raw.kind == "suspect":
            # A true suspicion must follow its peer's crash in trace
            # order; a false one (◊P mistakes) stays at the observer's
            # round, where the accuracy checker rightly flags it.
            peer_crash = crash_round.get(raw.peer)
            if peer_crash is not None:
                base = max(base, peer_crash)
        return min(max(base, 1), horizon)

    @staticmethod
    def _emit_round_event(observer: Any, raw: RawEvent) -> None:
        if raw.kind == "msg_sent":
            observer.msg_sent(
                raw.pid, raw.peer, round_index=raw.round, extra=raw.extra
            )
        elif raw.kind == "msg_withheld":
            observer.msg_withheld(
                raw.pid, raw.peer, raw.round, extra=raw.extra
            )
        elif raw.kind == "msg_delivered":
            observer.msg_delivered(
                raw.pid, raw.peer, round_index=raw.round, extra=raw.extra
            )
        elif raw.kind == "decide":
            observer.decide(
                raw.pid, raw.value, round_index=raw.round, extra=raw.extra
            )
        elif raw.kind == "crash":
            observer.crash(
                raw.pid,
                round_index=raw.round,
                applies_transition=False,
                extra=raw.extra,
            )
        elif raw.kind == "suspect":
            observer.suspect(
                raw.pid, raw.peer, delay=raw.value, extra=raw.extra
            )

    def _replay_steps(self, observer: Any) -> None:
        tick = 0.0
        halts: list[RawEvent] = []
        for raw in self.raw_events:
            if raw.kind == "halt":
                halts.append(raw)
                continue
            tick += 1.0
            if raw.kind == "msg_sent":
                observer.msg_sent(raw.pid, raw.peer, time=tick, extra=raw.extra)
            elif raw.kind == "msg_delivered":
                observer.msg_delivered(
                    raw.pid, raw.peer, time=tick, extra=raw.extra
                )
            elif raw.kind == "crash":
                observer.crash(
                    raw.pid, time=tick, applies_transition=False, extra=raw.extra
                )
            elif raw.kind == "suspect":
                observer.suspect(
                    raw.pid, raw.peer, time=tick, delay=raw.value, extra=raw.extra
                )
            elif raw.kind == "decide":
                observer.decide(
                    raw.pid, raw.value, round_index=raw.round, extra=raw.extra
                )
        for raw in sorted(halts, key=lambda r: r.seq):
            observer.halt(raw.pid)


class LiveCluster:
    """Run one :class:`LiveConfig` on a fresh event loop."""

    def __init__(
        self,
        config: LiveConfig,
        *,
        on_session_done: Any = None,
    ) -> None:
        self.config = config
        #: Called as ``on_session_done(session, wall_s, complete)`` in
        #: the event loop as each session finishes — the live progress
        #: seam (heartbeats, per-session metrics lines).  Must be a
        #: fast synchronous callable; never part of the config (configs
        #: are serializable campaign identity, callbacks are not).
        self.on_session_done = on_session_done
        self.session_walls: dict[int, float] = {}
        self.transport = LiveTransport(
            config.n, config.profile, random.Random(config.seed)
        )
        self.procs: list[_Proc] = []
        self.detector: HeartbeatService | None = None
        self.crash_rounds: dict[int, int] = {}
        self.crash_walls: dict[int, float] = {}
        self.all_decisions: dict[int, dict[int, tuple[int, Any]]] = {
            session: {} for session in range(config.sessions)
        }
        self._raws: list[RawEvent] = []
        self._seq = 0
        self._runner_tasks: dict[int, list[asyncio.Task]] = {
            pid: [] for pid in range(config.n)
        }
        self._sessions_launched = 0
        if config.mode == "steps":
            from repro.fdconsensus.chandra_toueg import ChandraTouegConsensus

            self._automata = [
                ChandraTouegConsensus(config.n, config.t, config.values)
                for _ in range(config.sessions)
            ]
        else:
            self._automata = [
                make_algorithm(config.algorithm)
                for _ in range(config.sessions)
            ]

    # -- public entry --------------------------------------------------------

    def run(self) -> LiveRun:
        """Execute the configured run to completion (blocking)."""
        return asyncio.run(self._main())

    # -- recording -----------------------------------------------------------

    def record(
        self,
        kind: str,
        *,
        pid: int,
        peer: int | None = None,
        round_index: int | None = None,
        value: Any = None,
        extra: dict[str, Any] | None = None,
    ) -> None:
        """Collect one raw event (no-op when recording is off).

        Every recorded event carries its wall stamp in
        ``extra["wall_s"]`` (the serialized trace's logical clock
        cannot) so critical-path attribution can reconstruct where the
        run's real time went; callers merge in per-kind forensics.
        """
        if not self.config.record_events:
            return
        self._seq += 1
        at_s = self.transport.now()
        merged: dict[str, Any] = {"wall_s": round(at_s, 6)}
        if extra:
            merged.update(extra)
        self._raws.append(
            RawEvent(
                seq=self._seq,
                kind=kind,
                at_s=at_s,
                pid=pid,
                peer=peer,
                round=round_index,
                value=value,
                extra=merged,
            )
        )

    def record_decision(
        self, session: int, pid: int, round_index: int, value: Any
    ) -> None:
        self.all_decisions[session][pid] = (round_index, value)
        if session == 0:
            self.record("decide", pid=pid, round_index=round_index, value=value)

    # -- orchestration -------------------------------------------------------

    async def _main(self) -> LiveRun:
        config = self.config
        self.transport.start()
        self.procs = [_Proc() for _ in range(config.n)]
        self.detector = HeartbeatService(
            config.n,
            self.transport,
            config.detector,
            crash_time_of=self.crash_walls.get,
            on_suspect=self._on_suspect,
        )

        loop = asyncio.get_running_loop()
        service_tasks: list[asyncio.Task] = []
        for pid in range(config.n):
            service_tasks.append(loop.create_task(self._route(pid)))
            for coro in self.detector.tasks(pid):
                service_tasks.append(loop.create_task(coro))
        fault_tasks = [
            loop.create_task(self._fault(pid, at_s))
            for pid, at_s in config.crash_at
        ]

        try:
            await asyncio.wait_for(self._run_sessions(), config.timeout_s)
        except TimeoutError:
            raise ExecutionError(
                f"live run exceeded its {config.timeout_s}s wall-clock "
                f"budget (profile {config.profile.name!r}, "
                f"algorithm {config.algorithm!r})"
            ) from None
        finally:
            duration = self.transport.now()
            for task in service_tasks + fault_tasks:
                task.cancel()
            await asyncio.gather(
                *service_tasks, *fault_tasks, return_exceptions=True
            )
            await self.transport.shutdown()

        completed = sum(map(self._complete, range(config.sessions)))
        return LiveRun(
            config=config,
            decisions=dict(self.all_decisions[0]),
            all_decisions={
                session: dict(entries)
                for session, entries in self.all_decisions.items()
            },
            raw_events=list(self._raws),
            crash_rounds=dict(self.crash_rounds),
            crash_walls=dict(self.crash_walls),
            detector_summary=self.detector.stats.summary(),
            transport_stats=self.transport.stats,
            duration_s=duration,
            sessions_completed=completed,
            session_walls_s=dict(self.session_walls),
        )

    async def _run_sessions(self) -> None:
        config = self.config
        gate = asyncio.Semaphore(config.concurrency)
        loop = asyncio.get_running_loop()

        async def one_session(session: int) -> None:
            async with gate:
                started = self.transport.now()
                tasks: list[asyncio.Task] = []
                for pid in range(config.n):
                    if pid in self.transport.crashed:
                        continue
                    task = loop.create_task(self._runner(session, pid))
                    self._runner_tasks[pid].append(task)
                    tasks.append(task)
                self._sessions_launched += 1
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                for outcome in outcomes:
                    if isinstance(outcome, asyncio.CancelledError):
                        continue  # the runner was crashed, by design
                    if isinstance(outcome, BaseException):
                        raise outcome
                wall = self.transport.now() - started
                self.session_walls[session] = wall
                if self.on_session_done is not None:
                    complete = self._complete(session)
                    self.on_session_done(session, wall, complete)

        await asyncio.gather(
            *(one_session(session) for session in range(config.sessions))
        )

    def _complete(self, session: int) -> bool:
        """Every process not crashed so far decided in ``session``."""
        survivors = set(range(self.config.n)) - set(self.crash_walls)
        return not clauses.termination(self.all_decisions[session], survivors)

    def _runner(self, session: int, pid: int):
        if self.config.mode == "steps":
            from repro.live.steps import run_steps_session

            return run_steps_session(self, session, pid, self._automata[session])
        from repro.live.rounds import run_rounds_session

        return run_rounds_session(self, session, pid, self._automata[session])

    # -- service tasks -------------------------------------------------------

    async def _route(self, pid: int) -> None:
        queue = self.transport.inboxes[pid].queue
        proc_ref = self.procs[pid]
        while True:
            payload = await queue.get()
            if pid in self.transport.crashed:
                continue
            kind = payload[0]
            if kind == HEARTBEAT:
                self.detector.heard(pid, payload[1])
            elif kind == ROUND_MSG:
                (
                    _,
                    session,
                    round_index,
                    sender,
                    has_payload,
                    body,
                    msg_id,
                ) = payload
                buffer = proc_ref.rounds.setdefault((session, round_index), {})
                if sender not in buffer:
                    buffer[sender] = (has_payload, body, msg_id)
                proc_ref.wake.set()
            elif kind == STEP_MSG:
                _, session, message, msg_id = payload
                proc_ref.steps.setdefault(session, deque()).append(
                    (message, msg_id)
                )
                proc_ref.wake.set()

    async def _fault(self, pid: int, at_s: float) -> None:
        await asyncio.sleep(at_s)
        if pid in self.transport.crashed:
            return
        if (
            self._sessions_launched >= self.config.sessions
            and self._runner_tasks[pid]
            and all(task.done() for task in self._runner_tasks[pid])
        ):
            # The process already halted everywhere; a crash now would
            # be trace-invisible (halt-then-crash is not a valid trace),
            # so the fault is dropped.
            return
        self.transport.crash(pid)
        self.crash_walls[pid] = self.transport.now()
        for task in self._runner_tasks[pid]:
            task.cancel()
        round_now = self.procs[pid].current_round.get(0, 1)
        crash_round = min(max(round_now, 1), self.config.max_rounds)
        self.crash_rounds[pid] = crash_round
        self.record("crash", pid=pid, round_index=crash_round)

    def _on_suspect(self, observer: int, peer: int) -> None:
        latest = self.detector.stats.suspicions[-1]
        delay_ms = (
            round(latest.delay_s * 1000, 3)
            if latest.delay_s is not None
            else None
        )
        self.record(
            "suspect",
            pid=observer,
            peer=peer,
            round_index=self.procs[observer].current_round.get(0),
            value=delay_ms,
            extra=self.detector.forensics(observer, peer),
        )
        self.procs[observer].wake.set()


def run_cluster(config: LiveConfig) -> LiveRun:
    """One-call convenience wrapper around :class:`LiveCluster`."""
    return LiveCluster(config).run()
