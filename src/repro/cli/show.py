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
    print(f"{args.scenario}: {cell.blurb}")
    print(
        f"algorithm={run.algorithm_name}, model={request.model}, "
        f"values={request.values}"
    )
    print()
    print(round_tableau(run))
    return 0


def register(parsers: dict[str, argparse.ArgumentParser]) -> None:
    """Fill in this module's command parsers (named in ``main.COMMANDS``)."""
    p_show = parsers["show"]
    p_show.add_argument("scenario", help=f"one of {sorted(SCENARIOS)}")
    p_show.set_defaults(func=_cmd_show)
