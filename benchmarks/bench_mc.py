"""Model checker throughput — exploration, reduction and full verdicts.

Times the three costs of a ``repro mc`` verdict on the paper's small
instances: frontier exploration with reductions on and off (same
instance, so the ratio of the two spans is the state-space payoff of
symmetry + dominance pruning), and an end-to-end ``check`` including
the engine sweep and property evaluation.

Timings land as ``mc.bench.*`` spans in ``benchmarks/metrics.jsonl``;
the explorations also record their frontier counters as
``mc.bench.stats.<mode>.<counter>`` spans whose *sample value* is the
raw count (not seconds — ``scripts/bench_report.py`` reads them back
as counts to derive states/sec and prune ratios for the committed
report's ``mc_timings`` section).
"""

from repro.mc import McTask, check, explore
from repro.obs.profile import get_profiler, profiled

#: The reference instance: FloodSet under RS, the paper's baseline.
INSTANCE = dict(n=3, t=1, model="RS", horizon=3)


def _record_stats(mode: str, stats) -> None:
    profiler = get_profiler()
    if profiler is None:
        return
    for counter, value in stats.to_dict().items():
        if isinstance(value, (int, float)):
            profiler.record(f"mc.bench.stats.{mode}.{counter}", float(value))


def _explore(reduce: bool):
    mode = "reduced" if reduce else "unreduced"
    with profiled(f"mc.bench.explore.{mode}"):
        exploration = explore("floodset", reduce=reduce, **INSTANCE)
    _record_stats(mode, exploration.stats)
    return exploration


def test_explore_reduced(benchmark):
    exploration = benchmark(_explore, True)
    assert exploration.leaves


def test_explore_unreduced(benchmark):
    exploration = benchmark(_explore, False)
    assert exploration.leaves


def test_explore_reduced_n6_t2(once):
    """Where the choice enumerator matters: 66 states behind 1976
    generated successors (66 752 when choices were pid subsets),
    explored once under timing."""

    def run():
        with profiled("mc.bench.explore.n6t2"):
            exploration = explore(
                "floodset", n=6, t=2, model="RS", horizon=3, reduce=True
            )
        _record_stats("n6t2", exploration.stats)
        return exploration

    exploration = once(run)
    assert exploration.stats.leaves > 0


def test_check_agreement(once):
    """One full verdict: explore + engine sweep + property + stats."""

    def run():
        with profiled("mc.bench.check.agreement"):
            return check(
                McTask(property_name="agreement", algorithm="floodset", **INSTANCE)
            )

    outcome = once(run)
    assert outcome.verdict.holds
