"""Subcommands over the experiment registry and the analysis tables:
``experiments`` and ``latency``.

The ``report`` subcommand is registered by :mod:`repro.cli.report`
(which delegates its legacy EXPERIMENTS.md mode to
:func:`_cmd_report` here)."""

from __future__ import annotations

import argparse
import sys

from repro.analysis import latency_profile
from repro.cli.common import at_least_one
from repro.core import EXPERIMENTS, run_all_experiments, write_report
from repro.rounds import RoundModel
from repro.runtime.registry import (
    ALGORITHM_FACTORIES,
    UNIFORM_CONSENSUS_ALGORITHMS,
)

#: The algorithms ``repro latency`` accepts by name.
ALGORITHMS = {
    key: ALGORITHM_FACTORIES[key] for key in UNIFORM_CONSENSUS_ALGORITHMS
}


def _cmd_experiments(args: argparse.Namespace) -> int:
    if not at_least_one("--jobs", args.jobs):
        return 2
    if args.ids:
        unknown = [i for i in args.ids if i.upper() not in EXPERIMENTS]
        if unknown:
            known = sorted(EXPERIMENTS, key=lambda key: int(key[1:]))
            print(
                f"error: unknown experiment {unknown[0]!r}; choose from "
                f"{known}",
                file=sys.stderr,
            )
            return 2
        results = [EXPERIMENTS[exp_id.upper()]() for exp_id in args.ids]
    else:
        results = run_all_experiments(jobs=args.jobs)
    failures = 0
    for result in results:
        print(result.describe())
        print()
        failures += 0 if result.ok else 1
    print(f"{len(results) - failures}/{len(results)} experiments passed")
    return 1 if failures else 0


def _cmd_report(args: argparse.Namespace) -> int:
    passed = write_report(args.output)
    print(f"wrote {args.output} ({passed} experiments passing)")
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
    p_exp.add_argument(
        "--ids", nargs="*", help="experiment ids, E1-E15 (default all)"
    )
    p_exp.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the full suite (default: 1, serial)",
    )
    p_exp.set_defaults(func=_cmd_experiments)

    p_lat = parsers["latency"]
    p_lat.add_argument("algorithm", choices=sorted(ALGORITHMS))
    p_lat.add_argument("--n", type=int, default=3)
    p_lat.set_defaults(func=_cmd_latency)
