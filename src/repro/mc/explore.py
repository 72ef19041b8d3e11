"""Breadth-first frontier expansion over the round-model adversary.

The exploration walks configurations level by level (one level per
round).  Expanding a configuration enumerates every admissible
adversary choice for the next round — which alive processes crash,
with which completed-send sets and transition flags, and (RWS) which
sent messages become pending — hands the choice to the executor's round
step (:func:`repro.rounds.executor.complete_round`, the one place a
round's delivery and transition rules are written), and canonicalizes
the successor.  Four reductions keep the frontier
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
  completing process's causal past (the delivered-message vectors of
  every transitioning process are identical), so by the Theorem 3.1
  argument the runs are indistinguishable to every process whose
  decisions the properties quantify over; ``tests/test_mc_explore.py``
  certifies representative prunes with
  :func:`repro.obs.diff.local_view` equality.
* **Choices up to the configuration's stabiliser**: the first two
  reductions prune a successor *after* it was built; this one does not
  build it.  :func:`repro.mc.symmetry.stabiliser_classes` colours the
  pids so that every permutation inside the colour classes maps the
  configuration to itself.  For interchangeable processes the
  adversary chooses *how many* of each class crash, are reached or are
  cut off, not *which*: each pick of a choice — the extra crash set,
  who of it still applies its transition, each silent crasher's
  ``sent_to``, (RWS) the obligor set and each sender's withheld
  recipients — is enumerated by :func:`_picks` as a count per class,
  realised on the class's lowest pids, and the colouring is refined by
  picked/unpicked (crashers and obligors become singletons) before the
  next pick.  Soundness: the permutations that respect the refined
  colouring fix the configuration *and* every pick made so far, so at
  each step they form a subgroup ``H`` of the true stabiliser of
  (configuration, partial choice); two subsets with equal class counts
  differ by an element of ``H``, the algorithms are equivariant under
  the declared group, hence the two completed choices lead to
  successors in one orbit — the same canonical form.  Every orbit of
  choices is therefore produced *at least once*.  ``H`` may be smaller
  than the stabiliser (transpositions only, no value bijections, pids
  told apart earlier than necessary), which merely enumerates some
  orbit twice: the duplicate falls to the ``visited`` set exactly as
  all of them did before, so the visited forms and the per-level
  counts are those of the subset enumeration.  Value symmetries are
  left to :func:`~repro.mc.symmetry.orbit_canonical` for the same
  reason: a value bijection (A1's 0 ↔ 1 flip) moves no pid, so on its
  own it relates configurations, never two choices at one; composed
  with a pid permutation it could, and leaving those elements out of
  ``H`` is once more only over-enumeration.  RWS withholds are
  additionally enumerated *admissible-first* (:func:`_withholds`): the
  obligor set within the crash budget comes first, so no withhold set
  is generated only to be rejected.

``reduce=False`` (the CLI's ``--no-reduce``) disables all four — the
same enumerator under the all-singletons colouring with no dominance
restriction — and enumerates the full admissible space in the style
of :func:`repro.rounds.enumeration.all_scenarios`: the executable twin
whose verdicts the reduced mode must (and is tested to) reproduce.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.errors import ConfigurationError
from repro.mc.config import Configuration, value_sort_key
from repro.mc.symmetry import (
    orbit_canonical,
    stabiliser_classes,
    symmetry_for,
)
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
    symmetry_pruned: int = 0
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
            "symmetry_pruned": self.symmetry_pruned,
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
    singletons = [(pid,) for pid in range(n)]

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
                t=t,
                allow_pending=allow_pending,
                reduce=reduce,
                colouring=(
                    stabiliser_classes(node.config, spec, tokens)
                    if reduce
                    else singletons
                ),
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


Colouring = Sequence[tuple[int, ...]]


def _refine(colouring: Colouring, picked: Sequence[int]) -> Colouring:
    """Split every class into its picked and its unpicked members."""
    if not picked:
        return colouring
    refined: list[tuple[int, ...]] = []
    for members in colouring:
        inside = tuple(pid for pid in members if pid in picked)
        if inside and len(inside) < len(members):
            refined.append(inside)
            refined.append(tuple(p for p in members if p not in picked))
        else:
            refined.append(members)
    return refined


def _isolate(colouring: Colouring, pids: Sequence[int]) -> Colouring:
    """Make each of ``pids`` a class of its own."""
    for pid in pids:
        colouring = _refine(colouring, (pid,))
    return colouring


def _picks(
    colouring: Colouring,
    pool: Sequence[int],
    stats: ExploreStats,
    *,
    lo: int = 0,
    hi: int | None = None,
) -> list[tuple[int, ...]]:
    """One adversary pick: the subsets of ``pool`` of ``lo..hi`` members,
    one per orbit of the colouring's group.

    Members of a class are interchangeable, so a subset is a *count per
    class*, realised on the class's lowest pool members (each pick an
    ascending tuple).  Whatever is picked next must be enumerated
    against ``_refine(colouring, pick)``.
    Under the all-singletons colouring this is every subset, by size
    and then lexicographically.
    """
    parts = [
        part
        for members in colouring
        if (part := tuple(pid for pid in members if pid in pool))
    ]
    size = sum(map(len, parts))
    hi = size if hi is None else min(hi, size)
    # Counts descending come out lexicographic in the realised pids;
    # the stable sort then groups by size.
    picks = [
        tuple(
            sorted(
                itertools.chain.from_iterable(
                    part[:count] for part, count in zip(parts, counts)
                )
            )
        )
        for counts in itertools.product(
            *(range(len(part), -1, -1) for part in parts)
        )
        if lo <= sum(counts) <= hi
    ]
    picks.sort(key=len)
    stats.symmetry_pruned += sum(
        math.comb(size, k) for k in range(lo, hi + 1)
    ) - len(picks)
    return picks


def _pick_each(
    colouring: Colouring,
    pools: Sequence[tuple[Sequence[int], int]],
    stats: ExploreStats,
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """One pick from each ``(pool, least size)`` in turn, every later
    pick enumerated against the colouring the earlier ones refined."""
    if not pools:
        yield ()
        return
    (pool, lo), rest = pools[0], pools[1:]
    for pick in _picks(colouring, pool, stats, lo=lo):
        if rest:
            for later in _pick_each(_refine(colouring, pick), rest, stats):
                yield (pick,) + later
        else:
            yield (pick,)


def _expand(
    node: _Node,
    round_index: int,
    *,
    algorithm,
    t: int,
    allow_pending: bool,
    reduce: bool,
    colouring: Colouring,
    stats: ExploreStats,
) -> Iterator[_Node]:
    """Every successor of ``node``: one per adversary choice for round
    ``round_index``, up to the group of ``colouring`` (classes of
    interchangeable pids partitioning ``range(n)``).

    The choice is a sequence of picks — who else crashes, which
    crashers still apply their transition, whom each silent crasher
    reached and (RWS) who withholds what — each made by :func:`_picks`
    against the colouring its predecessors refined.
    """
    config = node.config
    assert config.round == round_index - 1
    n = config.n
    alive = config.alive
    # Obligations are created one round ahead, so everything open now
    # is due now: the owed crash happens this round, transitionless.
    assert all(deadline == round_index for _, deadline in config.obligations)
    due = sorted(pid for pid, _ in config.obligations)
    spare = t - (n - len(alive)) - len(due)
    assert spare >= 0

    msgs = round_messages(algorithm, config.states, alive, n)
    candidates = [pid for pid in alive if pid not in due]
    everyone = frozenset(range(n))
    for extra in _picks(colouring, candidates, stats, hi=spare):
        crashers = due + list(extra)
        apart = _isolate(colouring, crashers)
        for transit in _picks(colouring, extra, stats):
            silent = [pid for pid in crashers if pid not in transit]
            observers = [pid for pid in alive if pid not in silent]
            # sent_to choices per crasher.  A crasher that applies its
            # transition completed its sends (admissibility).  Reduced
            # mode only enumerates a silent crasher's subsets of the
            # recipients it actually addresses this round *and* that
            # complete the round — everything else is unobservable
            # (see module docstring).
            pools = []
            for pid in silent:
                reachable = [q for q in range(n) if q != pid]
                if reduce:
                    visible = [
                        q for q in observers if q != pid and q in msgs[pid]
                    ]
                    stats.dominance_pruned += (
                        2 ** len(reachable) - 2 ** len(visible)
                    )
                    reachable = visible
                pools.append((reachable, 0))
            complete = {pid: everyone - {pid} for pid in transit}
            for sent_sets in _pick_each(apart, pools, stats):
                sent_to = complete | dict(
                    zip(silent, map(frozenset, sent_sets))
                )
                dying = {
                    pid: CrashEvent(
                        pid=pid,
                        round=round_index,
                        sent_to=sent_to[pid],
                        applies_transition=pid in transit,
                    )
                    for pid in crashers
                }
                if not allow_pending:
                    stats.choices_explored += 1
                    yield _apply_choice(
                        node, round_index, dying, frozenset(), (), algorithm, msgs
                    )
                    continue
                # _pick_each refines between its picks only (the RS
                # path has no use for the last one): redo the chain.
                for withheld, obligors in _withholds(
                    functools.reduce(_refine, sent_sets, apart),
                    msgs=msgs,
                    dying=dying,
                    observers=observers,
                    budget_left=spare - len(extra),
                    reduce=reduce,
                    stats=stats,
                ):
                    stats.choices_explored += 1
                    yield _apply_choice(
                        node,
                        round_index,
                        dying,
                        withheld,
                        obligors,
                        algorithm,
                        msgs,
                    )


def _withholds(
    colouring: Colouring,
    *,
    msgs: dict[int, Any],
    dying: dict[int, CrashEvent],
    observers: Sequence[int],
    budget_left: int,
    reduce: bool,
    stats: ExploreStats,
) -> Iterator[tuple[frozenset[tuple[int, int]], tuple[int, ...]]]:
    """The RWS withhold choices of one round, admissible-first.

    A withhold by a non-crashing sender towards a process that
    completes the round obliges the sender to crash next round (weak
    round synchrony), which must fit the crash budget.  So the obligor
    set is picked first, within the budget; each obligor then withholds
    a *non-empty* set of such messages, a crasher any of the messages
    it got out, and nobody else any — no withhold set is built to be
    rejected.  A withhold towards a process that does not complete the
    round is unobservable: reduced mode drops it, the twin mode lets
    every sender make it freely.  Yields ``(withheld pairs, obligors)``.
    """
    # Peer messages that reach the network this round, per sender.
    binding: dict[int, list[int]] = {}
    free: dict[int, list[int]] = {}
    for pid, messages in msgs.items():
        crash = dying.get(pid)
        out = [
            q
            for q in sorted(messages)
            if q != pid and (crash is None or crash.reaches(q))
        ]
        seen = [q for q in out if q in observers]
        if reduce:
            stats.dominance_pruned += len(out) - len(seen)
            unseen = []
        else:
            unseen = [q for q in out if q not in observers]
        if crash is None:
            binding[pid], free[pid] = seen, unseen
        else:
            free[pid] = seen + unseen

    debtors = [pid for pid, seen in binding.items() if seen]
    for obligors in _picks(colouring, debtors, stats, hi=budget_left):
        senders = []
        pools = []
        for pid in msgs:
            for pool, lo in (
                (binding[pid] if pid in obligors else (), 1),
                (free[pid], 0),
            ):
                if pool:
                    senders.append(pid)
                    pools.append((pool, lo))
        for held in _pick_each(_isolate(colouring, obligors), pools, stats):
            yield (
                frozenset(
                    (pid, q)
                    for pid, recipients in zip(senders, held)
                    for q in recipients
                ),
                obligors,
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
