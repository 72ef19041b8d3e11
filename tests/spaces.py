"""Registered spaces for tests that sweep every one of them."""

from __future__ import annotations

import inspect

from repro.runtime.space import SPACE_FACTORIES, ScenarioSpace, space_by_name


def space_with(name: str, **options: int) -> ScenarioSpace:
    """``space_by_name(name, ...)`` given only the ``options`` the space
    takes: ``e10-lambda`` is fixed."""
    takes = inspect.signature(SPACE_FACTORIES[name]).parameters
    return space_by_name(
        name, **{option: value for option, value in options.items() if option in takes}
    )
