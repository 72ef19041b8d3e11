"""Public API surface tests: the façade stays importable and coherent."""

from __future__ import annotations

import importlib

import pytest

import repro


class TestTopLevelFacade:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    def test_version_matches_pyproject(self):
        import pathlib
        import re

        pyproject = pathlib.Path(__file__).parent.parent / "pyproject.toml"
        match = re.search(
            r'^version = "(.+)"', pyproject.read_text(), re.MULTILINE
        )
        assert match is not None
        assert repro.__version__ == match.group(1)

    def test_quickstart_snippet_from_docstring(self):
        """The README/docstring quickstart must actually work."""
        from repro import run_rs, FloodSet, FailureScenario

        run = run_rs(
            FloodSet(),
            values=[0, 1, 1],
            scenario=FailureScenario.failure_free(3),
            t=1,
        )
        assert run.decisions == {0: (2, 0), 1: (2, 0), 2: (2, 0)}

    def test_errors_importable_from_top_level(self):
        from repro import ReproError, ScenarioError

        assert issubclass(ScenarioError, ReproError)


SUBPACKAGES = [
    "repro.simulation",
    "repro.failures",
    "repro.models",
    "repro.rounds",
    "repro.emulation",
    "repro.consensus",
    "repro.sdd",
    "repro.commit",
    "repro.analysis",
    "repro.trace",
    "repro.workloads",
    "repro.stats",
    "repro.core",
    "repro.cli",
    "repro.serialize",
]


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackage_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module_name}.__all__ lists {name}"


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackage_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


def test_every_public_algorithm_has_a_name():
    from repro.consensus import (
        A1,
        COptFloodSet,
        COptFloodSetWS,
        EagerFloodSetWS,
        EarlyDecidingConsensus,
        EarlyDecidingUniformFloodSet,
        FloodSet,
        FloodSetWS,
        FOptFloodSet,
        FOptFloodSetWS,
    )
    from repro.commit.algorithms import (
        OptimisticFDCommit,
        PerfectFDCommit,
        SynchronousCommit,
        TwoPhaseCommit,
    )

    classes = [
        A1, COptFloodSet, COptFloodSetWS, EagerFloodSetWS,
        EarlyDecidingConsensus, EarlyDecidingUniformFloodSet,
        FloodSet, FloodSetWS, FOptFloodSet, FOptFloodSetWS,
        OptimisticFDCommit, PerfectFDCommit, SynchronousCommit,
        TwoPhaseCommit,
    ]
    names = [cls.name for cls in classes]
    assert len(set(names)) == len(names), "algorithm names must be unique"
    assert all(name != "abstract" for name in names)
