"""``repro show``: execute a named scenario and render it."""

from __future__ import annotations

import argparse

from repro.cli.common import SCENARIOS, resolve_scenario
from repro.runtime.harness import harness_for
from repro.trace import round_tableau


def _cmd_show(args: argparse.Namespace) -> int:
    cell = resolve_scenario(args.scenario)
    if cell is None:
        return 2
    request = cell.request
    run = harness_for(request.engine).execute(request, None)
    if getattr(args, "dot", False):
        from repro.trace import round_run_to_dot

        print(round_run_to_dot(run))
        return 0
    print(f"{args.scenario}: {cell.blurb}")
    print(
        f"algorithm={run.algorithm_name}, model={request.model}, "
        f"values={request.values}"
    )
    print()
    print(round_tableau(run))
    return 0


def register(sub: argparse._SubParsersAction) -> None:
    """Attach this module's subcommands to the root parser."""
    p_show = sub.add_parser("show", help="render a named scenario")
    p_show.add_argument("scenario", help=f"one of {sorted(SCENARIOS)}")
    p_show.add_argument(
        "--dot",
        action="store_true",
        help="emit Graphviz DOT instead of the ASCII tableau",
    )
    p_show.set_defaults(func=_cmd_show)
