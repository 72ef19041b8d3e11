"""Breadth-first frontier expansion over the round-model adversary.

The exploration walks configurations level by level (one level per
round).  Expanding a configuration enumerates every admissible
adversary choice for the next round — which alive processes crash,
with which completed-send sets and transition flags, and (RWS) which
sent messages become pending — hands the choice to the executor's round
step (:func:`repro.rounds.executor.complete_round`, the one place a
round's delivery and transition rules are written), and canonicalizes
the successor.  Three reductions keep the frontier
small, each with an explicit soundness argument:

* **Canonical state hashing** (:mod:`repro.mc.config`): deterministic
  algorithms + a memoryless adversary mean equal configurations have
  equal futures, so a revisited canonical key prunes the whole
  subtree.  The kept path's leaf evaluates the same properties the
  pruned paths' leaves would (decisions of crashed processes are part
  of the configuration).
* **Symmetry** (:mod:`repro.mc.symmetry`): orbit representatives under
  the algorithm's declared process-id / value symmetries.
* **Scenario dominance**: adversary choices that only differ in
  unobservable bits are collapsed onto one canonical choice —
  ``sent_to`` members the crashing process never actually addressed,
  deliveries and withholds towards processes that do not complete the
  round, and crashes after global quiescence.  None of these enter any
  completing process's causal cone (the delivered-message vectors of
  every transitioning process are identical), so by the Theorem 3.1
  argument the runs are indistinguishable to every process whose
  decisions the properties quantify over; ``tests/test_mc_explore.py``
  certifies representative prunes with
  :func:`repro.obs.causal.cone_signature` equality.

``reduce=False`` (the CLI's ``--no-reduce``) disables all three and
enumerates the full admissible space in the style of
:func:`repro.rounds.enumeration.all_scenarios` — the executable twin
whose verdicts the reduced mode must (and is tested to) reproduce.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.errors import ConfigurationError
from repro.mc.config import Configuration, value_sort_key
from repro.mc.symmetry import orbit_canonical, symmetry_for
from repro.rounds.executor import complete_round, round_messages
from repro.rounds.scenario import CrashEvent, FailureScenario, PendingMessage
from repro.runtime.registry import make_algorithm


@dataclass
class Leaf:
    """One representative complete run of the reduced schedule set."""

    values: tuple
    scenario: FailureScenario
    decisions: dict[int, tuple[int, Any]]
    rounds: int


@dataclass
class ExploreStats:
    """Frontier statistics: the evidence behind ``HOLDS(exhaustive)``."""

    roots_total: int = 0
    roots_kept: int = 0
    states_generated: int = 0
    states_visited: int = 0
    revisit_pruned: int = 0
    dominance_pruned: int = 0
    choices_explored: int = 0
    leaves: int = 0
    quiescent_leaves: int = 0
    levels: list[int] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "roots_total": self.roots_total,
            "roots_kept": self.roots_kept,
            "states_generated": self.states_generated,
            "states_visited": self.states_visited,
            "revisit_pruned": self.revisit_pruned,
            "dominance_pruned": self.dominance_pruned,
            "choices_explored": self.choices_explored,
            "leaves": self.leaves,
            "quiescent_leaves": self.quiescent_leaves,
            "levels": list(self.levels),
        }


@dataclass
class Exploration:
    """The reduced run set plus the statistics that justify it."""

    algorithm: str
    n: int
    t: int
    model: str
    horizon: int
    reduce: bool
    leaves: list[Leaf]
    stats: ExploreStats


class _Node:
    __slots__ = ("config", "values", "crashes", "pending", "decisions")

    def __init__(self, config, values, crashes, pending, decisions):
        self.config = config
        self.values = values
        self.crashes = crashes
        self.pending = pending
        self.decisions = decisions


def _subsets(items: Sequence[int]) -> Iterator[frozenset[int]]:
    for size in range(len(items) + 1):
        for combo in itertools.combinations(items, size):
            yield frozenset(combo)


def _materialized_scenario(node: _Node, n: int) -> FailureScenario:
    """The node's full scenario, outstanding obligations included.

    An obligation ``(pid, deadline)`` still open at leaf time becomes a
    bare crash event in ``deadline`` — admissible (a crash is allowed
    one round past the horizon, exactly the weak-round-synchrony
    deadline of a final-round withhold) and unobservable (the engine
    never executes that round), so ``sent_to`` is canonically empty.
    """
    crashes = list(node.crashes)
    for pid, deadline in node.config.obligations:
        crashes.append(CrashEvent(pid=pid, round=deadline))
    return FailureScenario(
        n=n, crashes=tuple(crashes), pending=frozenset(node.pending)
    )


def explore(
    algorithm_key: str,
    *,
    n: int,
    t: int,
    model: str,
    horizon: int,
    reduce: bool = True,
    domain: tuple = (0, 1),
    max_states: int = 200_000,
) -> Exploration:
    """Exhaustively expand the bounded frontier; see the module docstring."""
    if model not in ("RS", "RWS"):
        raise ConfigurationError(f"model must be RS or RWS, got {model!r}")
    if not 1 <= t < n:
        raise ConfigurationError(f"need 1 <= t < n, got t={t}, n={n}")
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    algorithm = make_algorithm(algorithm_key)
    spec = symmetry_for(algorithm_key)
    allow_pending = model == "RWS"
    stats = ExploreStats()
    visited: set[tuple] = set()
    leaves: list[Leaf] = []
    tokens: dict = {}

    # -- roots ---------------------------------------------------------------
    frontier: list[_Node] = []
    for values in itertools.product(domain, repeat=n):
        stats.roots_total += 1
        states = tuple(
            algorithm.initial_state(pid, n, t, values[pid])
            for pid in range(n)
        )
        config = Configuration(
            round=0,
            states=states,
            decided=(),
            initial_values=tuple(sorted(set(values), key=value_sort_key)),
            obligations=(),
        )
        if reduce:
            form = orbit_canonical(config, spec, tokens)
            if form in visited:
                stats.revisit_pruned += 1
                continue
            visited.add(form)
        stats.roots_kept += 1
        stats.states_visited += 1
        frontier.append(_Node(config, values, (), frozenset(), {}))

    # -- levels --------------------------------------------------------------
    for round_index in range(1, horizon + 1):
        next_frontier: list[_Node] = []
        for node in frontier:
            if _quiescent(algorithm, node.config):
                stats.quiescent_leaves += 1
                leaves.append(_leaf(node, n))
                continue
            for successor in _expand(
                node,
                round_index,
                algorithm=algorithm,
                n=n,
                t=t,
                allow_pending=allow_pending,
                reduce=reduce,
                stats=stats,
            ):
                stats.states_generated += 1
                if reduce:
                    form = orbit_canonical(successor.config, spec, tokens)
                    if form in visited:
                        stats.revisit_pruned += 1
                        continue
                    visited.add(form)
                stats.states_visited += 1
                if stats.states_visited > max_states:
                    raise ConfigurationError(
                        f"frontier exceeded max_states={max_states} at "
                        f"round {round_index}; lower n/t/horizon or keep "
                        "reductions on"
                    )
                next_frontier.append(successor)
        stats.levels.append(len(next_frontier))
        frontier = next_frontier

    for node in frontier:
        leaves.append(_leaf(node, n))
    stats.leaves = len(leaves)
    return Exploration(
        algorithm=algorithm_key,
        n=n,
        t=t,
        model=model,
        horizon=horizon,
        reduce=reduce,
        leaves=leaves,
        stats=stats,
    )


def _leaf(node: _Node, n: int) -> Leaf:
    return Leaf(
        values=node.values,
        scenario=_materialized_scenario(node, n),
        decisions=dict(node.decisions),
        rounds=node.config.round,
    )


def _quiescent(algorithm, config: Configuration) -> bool:
    """The executor's stop rule on a configuration: every alive process
    halted."""
    return all(
        algorithm.halted(pid, config.states[pid]) for pid in config.alive
    )


def _expand(
    node: _Node,
    round_index: int,
    *,
    algorithm,
    n: int,
    t: int,
    allow_pending: bool,
    reduce: bool,
    stats: ExploreStats,
) -> Iterator[_Node]:
    config = node.config
    assert config.round == round_index - 1
    alive = list(config.alive)
    crashed_count = n - len(alive)
    obligations = dict(config.obligations)
    # Obligations are created one round ahead, so everything open now
    # is due now: the owed crash happens this round, transitionless.
    assert all(deadline == round_index for deadline in obligations.values())
    due = sorted(obligations)
    spare = t - crashed_count - len(due)
    assert spare >= 0

    msgs = round_messages(algorithm, config.states, alive, n)
    candidates = [pid for pid in alive if pid not in due]

    for extra_size in range(0, spare + 1):
        for extra in itertools.combinations(candidates, extra_size):
            crashers = due + list(extra)
            flag_options = [
                ((False,) if pid in due else (False, True))
                for pid in crashers
            ]
            for flags in itertools.product(*flag_options):
                flag_of = dict(zip(crashers, flags))
                observers = frozenset(
                    pid
                    for pid in alive
                    if pid not in flag_of or flag_of[pid]
                )
                yield from _choices_for_crash_set(
                    node,
                    round_index,
                    flag_of=flag_of,
                    observers=observers,
                    algorithm=algorithm,
                    msgs=msgs,
                    budget_left=spare - extra_size,
                    allow_pending=allow_pending,
                    reduce=reduce,
                    stats=stats,
                )


def _choices_for_crash_set(
    node: _Node,
    round_index: int,
    *,
    flag_of: dict[int, bool],
    observers: frozenset[int],
    algorithm,
    msgs: dict[int, Any],
    budget_left: int,
    allow_pending: bool,
    reduce: bool,
    stats: ExploreStats,
) -> Iterator[_Node]:
    # sent_to choices per crasher.  Reduced mode only enumerates
    # subsets of the recipients the process actually addresses this
    # round *and* that complete the round — everything else is
    # unobservable (see module docstring).  The full-set + transition
    # variant is forced by the admissibility rule.
    n = len(node.config.states)
    sent_options: list[list[frozenset[int]]] = []
    for pid in flag_of:
        others = [q for q in range(n) if q != pid]
        if flag_of[pid]:
            sent_options.append([frozenset(others)])
            continue
        if reduce:
            visible = sorted(
                q for q in msgs[pid] if q != pid and q in observers
            )
            stats.dominance_pruned += 2 ** len(others) - 2 ** len(visible)
            sent_options.append(list(_subsets(visible)))
        else:
            sent_options.append(list(_subsets(others)))

    for sent_sets in itertools.product(*sent_options):
        dying = {
            pid: CrashEvent(
                pid=pid,
                round=round_index,
                sent_to=sent_to,
                applies_transition=flag_of[pid],
            )
            for pid, sent_to in zip(flag_of, sent_sets)
        }
        if not allow_pending:
            stats.choices_explored += 1
            yield _apply_choice(
                node, round_index, dying, frozenset(), (), algorithm, msgs
            )
            continue
        # Peer messages that reach the network this round.
        sent_pairs = [
            (pid, q)
            for pid in msgs
            for q in sorted(msgs[pid])
            if q != pid and (pid not in dying or dying[pid].reaches(q))
        ]

        # Withhold choices (RWS).  A withhold towards a process that
        # does not complete the round is unobservable (pruned when
        # reducing); a withhold by a non-crashing sender towards a
        # completing recipient obliges the sender to crash next round
        # (weak round synchrony), which must fit the crash budget.
        if reduce:
            candidates = [
                (pid, q) for (pid, q) in sent_pairs if q in observers
            ]
            stats.dominance_pruned += len(sent_pairs) - len(candidates)
        else:
            candidates = sent_pairs
        for withheld in _subsets(candidates):
            obligors = sorted(
                {
                    pid
                    for (pid, q) in withheld
                    if pid not in flag_of and q in observers
                }
            )
            if len(obligors) > budget_left:
                continue
            stats.choices_explored += 1
            yield _apply_choice(
                node,
                round_index,
                dying,
                withheld,
                tuple(obligors),
                algorithm,
                msgs,
            )


def _apply_choice(
    node: _Node,
    round_index: int,
    dying: dict[int, CrashEvent],
    withheld: frozenset[tuple[int, int]],
    new_obligors: tuple[int, ...],
    algorithm,
    msgs: dict[int, Any],
) -> _Node:
    """The successor of ``node`` under one adversary choice — this
    round's crash events and withheld pairs — by the executor's round
    step."""
    config = node.config
    step = complete_round(
        algorithm, config.states, msgs, round_index, dying, withheld
    )

    # A crasher's state leaves the configuration even when it applied
    # its transition; its decision, if any, stays.
    states = list(config.states)
    for pid in msgs:
        states[pid] = None if pid in dying else step.states[pid]
    decisions = dict(node.decisions)
    decided = set(config.decided)
    for pid, entry in step.decisions.items():
        if pid not in decisions:
            decisions[pid] = entry
            decided.add(entry[1])

    successor = Configuration(
        round=round_index,
        states=tuple(states),
        decided=tuple(sorted(decided, key=value_sort_key)),
        initial_values=config.initial_values,
        obligations=tuple(
            (pid, round_index + 1) for pid in new_obligors
        ),
    )
    return _Node(
        successor,
        node.values,
        node.crashes + tuple(dying.values()),
        node.pending
        | {PendingMessage(pid, q, round_index) for pid, q in withheld},
        decisions,
    )
