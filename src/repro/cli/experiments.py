"""Subcommands over the experiment registry and the analysis tables:
``experiments``, ``summary``, ``sdd``, ``commit``, ``latency``.

The ``report`` subcommand is registered by :mod:`repro.cli.report`
(which delegates its legacy EXPERIMENTS.md mode to
:func:`_cmd_report` here)."""

from __future__ import annotations

import argparse
import random
import sys

from repro.analysis import format_table, latency_profile, latency_summary_table
from repro.cli.common import jobs_ok
from repro.commit import compare_commit_rates
from repro.core import (
    EXPERIMENTS,
    EXTENSIONS,
    run_all_experiments,
    run_all_extensions,
    write_report,
)
from repro.failures import FailurePattern
from repro.rounds import RoundModel
from repro.runtime.registry import (
    ALGORITHM_FACTORIES,
    UNIFORM_CONSENSUS_ALGORITHMS,
)
from repro.sdd import SP_CANDIDATE_FACTORIES, refute_sdd_candidate, solve_sdd_ss
from repro.trace import describe_run, step_diagram

#: The algorithms ``repro latency`` (and friends) accept by name.
ALGORITHMS = {
    key: ALGORITHM_FACTORIES[key] for key in UNIFORM_CONSENSUS_ALGORITHMS
}


def _cmd_experiments(args: argparse.Namespace) -> int:
    if not jobs_ok(args.jobs):
        return 2
    quick = not args.full
    if args.ids:
        registry = {**EXPERIMENTS, **EXTENSIONS}
        unknown = [i for i in args.ids if i.upper() not in registry]
        if unknown:
            known = sorted(registry, key=lambda key: (key[0], int(key[1:])))
            print(
                f"error: unknown experiment {unknown[0]!r}; choose from "
                f"{known}",
                file=sys.stderr,
            )
            return 2
        results = [registry[exp_id.upper()](quick) for exp_id in args.ids]
    else:
        results = run_all_experiments(quick, jobs=args.jobs)
        if args.extensions:
            results.extend(run_all_extensions(quick))
    failures = 0
    for result in results:
        print(result.describe())
        print()
        failures += 0 if result.ok else 1
    print(f"{len(results) - failures}/{len(results)} experiments passed")
    return 1 if failures else 0


def _cmd_report(args: argparse.Namespace) -> int:
    passed = write_report(args.output, quick=not args.full)
    print(f"wrote {args.output} ({passed} experiments passing)")
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    algorithms = [factory() for factory in ALGORITHMS.values()]
    rows = latency_summary_table(algorithms, n=args.n, t=1)
    print(format_table(rows))
    return 0


def _cmd_sdd(args: argparse.Namespace) -> int:
    print("SS solves SDD (value 1, sender crashes at time 2):")
    pattern = FailurePattern.with_crashes(2, {0: 2})
    run = solve_sdd_ss(1, pattern, phi=1, delta=1, rng=random.Random(args.seed))
    print(" ", describe_run(run))
    print(step_diagram(run, max_rows=12))
    print()
    print("Theorem 3.1 refutations in SP:")
    for name, factory in SP_CANDIDATE_FACTORIES.items():
        print(refute_sdd_candidate(factory, name).describe())
    return 0


def _cmd_commit(args: argparse.Namespace) -> int:
    for name, report in compare_commit_rates(n=args.n, t=1).items():
        print(f"{name}: {report.describe()}")
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    algorithm = ALGORITHMS[args.algorithm]()  # argparse `choices` vetted it
    for model in (RoundModel.RS, RoundModel.RWS):
        try:
            profile = latency_profile(algorithm, args.n, 1, model)
        except Exception as exc:  # unsafe pairs raise on non-termination
            print(f"{model.value}: not measurable ({exc})")
            continue
        print(profile.describe())
    return 0


def register(parsers: dict[str, argparse.ArgumentParser]) -> None:
    """Fill in this module's command parsers (named in ``main.COMMANDS``)."""
    p_exp = parsers["experiments"]
    p_exp.add_argument("--ids", nargs="*", help="experiment ids (default all)")
    p_exp.add_argument(
        "--full", action="store_true", help="larger sweeps (slower)"
    )
    p_exp.add_argument(
        "--extensions",
        action="store_true",
        help="also run the X1-X7 extension experiments",
    )
    p_exp.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the full suite (default: 1, serial)",
    )
    p_exp.set_defaults(func=_cmd_experiments)

    p_summary = parsers["summary"]
    p_summary.add_argument("--n", type=int, default=3)
    p_summary.set_defaults(func=_cmd_summary)

    p_sdd = parsers["sdd"]
    p_sdd.add_argument("--seed", type=int, default=7)
    p_sdd.set_defaults(func=_cmd_sdd)

    p_commit = parsers["commit"]
    p_commit.add_argument("--n", type=int, default=3)
    p_commit.set_defaults(func=_cmd_commit)

    p_lat = parsers["latency"]
    p_lat.add_argument("algorithm", choices=sorted(ALGORITHMS))
    p_lat.add_argument("--n", type=int, default=3)
    p_lat.set_defaults(func=_cmd_latency)
