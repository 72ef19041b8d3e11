"""``repro mc``: exhaustive bounded model checking of the paper's claims.

``repro mc PROPERTY`` explores every admissible failure schedule of a
bounded instance (algorithm, ``n``, ``t``, model, round horizon),
executes the resulting frontier through the unified runtime, and
prints a machine-checked verdict: ``HOLDS(exhaustive)`` with the
frontier statistics that justify it, or ``REFUTED`` with replayable
witnesses in the fuzz counterexample format.

Properties (see ``repro mc --list``): ``agreement``,
``uniform-agreement``, ``validity``, ``termination`` (cell
properties), ``lambda`` (the failure-free worst case Λ vs its paper
bound), and ``indistinguishability`` (equal local views force equal
decisions, Theorem 3.1; ``--fixture NAME`` instead classifies one of
Biely's SDD quadruple fixtures).

``--run-dir ROOT`` gives the checking run the full campaign treatment
— resumable run directory, progress heartbeats, cached cells — and
makes it shardable: ``repro serve --space "mc:..."`` over the spec the
verdict prints executes the same cells, and either side resumes the
other.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import ConfigurationError, ExecutionError

#: CLI engine choices: schedule engines exhaust the frontier, grid
#: engines sample crash timings (scope "grid").
_ENGINES = ("rounds", "rs_on_ss", "rws_on_sp")


def _list_properties() -> int:
    from repro.mc.properties import PROPERTIES

    for name in sorted(PROPERTIES):
        prop = PROPERTIES[name]
        print(f"{name:22s} {prop.doc}  [{prop.theorem}]")
    return 0


def _classify_fixture(name: str) -> int:
    from repro.mc.fixtures import classify_sdd_quadruple

    classification = classify_sdd_quadruple(name)
    print(classification.describe())
    return 0 if classification.genuine else 1


def _clamped_t(algorithm: str, t: int) -> int:
    from repro.mc.checker import ALGORITHM_T_CONSTRAINTS

    required = ALGORITHM_T_CONSTRAINTS.get(algorithm)
    if required is not None and t != required:
        print(
            f"note: {algorithm} is defined for t={required}; "
            f"clamping --t {t} -> {required}",
            file=sys.stderr,
        )
        return required
    return t


def _write_witnesses(documents: list[dict], out_dir: Path) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, document in enumerate(documents):
        path = out_dir / f"mc-witness-{index:02d}.json"
        path.write_text(
            json.dumps(document, indent=2, sort_keys=True, default=repr)
            + "\n",
            encoding="utf-8",
        )
        paths.append(path)
    return paths


def _cmd_mc(args: argparse.Namespace) -> int:
    if args.list:
        return _list_properties()
    if args.fixture is not None:
        try:
            return _classify_fixture(args.fixture)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.property is None:
        print(
            "error: provide a property (repro mc --list) or --fixture NAME",
            file=sys.stderr,
        )
        return 2

    from repro.cli.common import jobs_ok
    from repro.mc import McTask, check, save_frontier, spec_for_task
    from repro.runtime.request import ROUND_ENGINES

    if not jobs_ok(args.jobs):
        return 2

    algorithm = args.algorithm.lower()
    task = McTask(
        property_name=args.property,
        algorithm=algorithm,
        n=args.n,
        t=_clamped_t(algorithm, args.t),
        model=args.model.upper(),
        horizon=args.horizon,
        engine=args.engine,
        reduce=not args.no_reduce,
        jobs=args.jobs,
        run_root=args.run_dir,
        bound=args.bound,
        by_round=args.by_round,
        shrink_witness=not args.no_shrink,
    )
    try:
        outcome = check(
            task,
            progress_stream=sys.stderr if args.run_dir is not None else None,
        )
    except (ConfigurationError, ExecutionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(outcome.verdict.describe())
    if task.engine in ROUND_ENGINES:
        print(f"serve spec: {spec_for_task(task)}")
    if outcome.run_dir is not None:
        print(f"run dir: {outcome.run_dir}")

    if args.save_frontier is not None:
        if outcome.exploration is None:
            print(
                "note: no schedule frontier to save (lambda/grid tasks "
                "have no exploration)",
                file=sys.stderr,
            )
        else:
            save_frontier(outcome.exploration, args.save_frontier)
            print(f"frontier: {args.save_frontier}")

    out_dir = None
    if args.out is not None:
        out_dir = Path(args.out)
    elif outcome.run_dir is not None:
        out_dir = Path(outcome.run_dir)
    if out_dir is not None:
        verdict_path = out_dir / "verdict.json"
        out_dir.mkdir(parents=True, exist_ok=True)
        verdict_path.write_text(
            outcome.verdict.to_json() + "\n", encoding="utf-8"
        )
        print(f"verdict: {verdict_path}")
        for path in _write_witnesses(outcome.verdict.witnesses, out_dir):
            print(f"witness: {path} (replay with `repro replay --repro {path}`)")

    return 0 if outcome.verdict.holds else 1


def register(parsers: dict[str, argparse.ArgumentParser]) -> None:
    mc = parsers["mc"]
    mc.add_argument(
        "property",
        nargs="?",
        help="property to check (repro mc --list)",
    )
    mc.add_argument(
        "--list", action="store_true", help="list checkable properties"
    )
    mc.add_argument(
        "--algorithm",
        default="floodset",
        help="algorithm under check (case-insensitive; default floodset)",
    )
    mc.add_argument("--n", type=int, default=3, help="processes (default 3)")
    mc.add_argument(
        "--t", type=int, default=1, help="crash budget (default 1)"
    )
    mc.add_argument(
        "--model",
        default="RS",
        choices=("RS", "RWS", "rs", "rws"),
        help="round model for schedule frontiers (default RS)",
    )
    mc.add_argument(
        "--horizon",
        type=int,
        help="round bound (default max(3, t+1))",
    )
    mc.add_argument(
        "--engine",
        default="rounds",
        choices=_ENGINES,
        help=(
            "rounds exhausts the schedule frontier; "
            "rs_on_ss/rws_on_sp check the emulation grid (scope 'grid')"
        ),
    )
    mc.add_argument(
        "--no-reduce",
        action="store_true",
        help=(
            "disable symmetry + dominance reduction (twin mode: verdicts "
            "must match the reduced run)"
        ),
    )
    mc.add_argument(
        "--jobs", type=int, default=1, help="worker processes (default 1)"
    )
    mc.add_argument(
        "--run-dir",
        metavar="ROOT",
        help="write a resumable run directory under ROOT",
    )
    mc.add_argument(
        "--bound",
        help="Λ bound override for the lambda property (==K, >=K, <=K)",
    )
    mc.add_argument(
        "--by-round",
        type=int,
        help="termination round bound override (default min(t+1, horizon))",
    )
    mc.add_argument(
        "--out",
        metavar="DIR",
        help="write verdict.json and witness files into DIR",
    )
    mc.add_argument(
        "--save-frontier",
        metavar="FILE",
        help="save the explored schedule frontier as JSON (fuzz seeding)",
    )
    mc.add_argument(
        "--no-shrink",
        action="store_true",
        help="emit the first witness unshrunk",
    )
    mc.add_argument(
        "--fixture",
        metavar="NAME",
        help=(
            "classify one of Biely's SDD quadruple fixtures as an "
            "indistinguishability witness instead of checking a frontier"
        ),
    )
    mc.set_defaults(func=_cmd_mc)
