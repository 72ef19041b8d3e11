"""Start-up is proportional to the command: import sets, counted not timed.

Each case runs ``repro.cli.main.main(argv)`` in a fresh interpreter and
dumps the modules it added to ``sys.modules``.  A command must load
only the layers it runs — a FloodSet agreement check has no business
importing numpy, asyncio or the fuzz campaign — so a reintroduced
eager import fails here by name, in seconds, instead of as a slower
benchmark.  What else needs a fresh interpreter is pinned here too: the
dispatcher's ``--help`` and error text, a quiet exit when stdout closes
early, and the three re-exports that must stay eager.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
{body}
sys.__stdout__.write(json.dumps(sorted(set(sys.modules) - before)))
"""

_RUN_MAIN = """
from repro.cli.main import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
assert code == {code}, code
"""

MC = ["mc", "agreement", "--algorithm", "floodset", "--n", "3", "--t", "1"]
SWEEP = ["sweep", "random-rs", "--count", "8", "--check", "--engine"]
#: The step-kernel emulations and what only they import: a round-engine
#: command (rounds/vector sweep, schedule-engine mc) runs none of it.
STEP_KERNEL = ("repro.emulation", "repro.simulation", "repro.models")
#: Every registered algorithm's home but FloodSet's: a run that names
#: FloodSet resolves one registry entry.
OTHER_ALGORITHMS = (
    "repro.consensus.a1",
    "repro.consensus.opt",
    "repro.consensus.fopt",
    "repro.consensus.early",
)
#: What only a run directory switches on (``CampaignLeg`` with a root).
RUN_DIR_LAYERS = (
    "repro.obs.artifacts",
    "repro.obs.report",
    "repro.runtime.cache",
)


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with ``src/`` importable and an 80-column terminal."""
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def _loaded(body: str) -> set[str]:
    """Modules a fresh interpreter adds to ``sys.modules`` running ``body``."""
    proc = _python("-c", _PROBE.format(body=body))
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def _loaded_by(argv: list[str], code: int = 0) -> set[str]:
    return _loaded(_RUN_MAIN.format(argv=argv, code=code))


def _ours(loaded: set[str]) -> list[str]:
    """The ``repro.*`` part of an import set: the stdlib's share differs
    between Python versions, ours does not."""
    return sorted(m for m in loaded if m.split(".")[0] == "repro")


def _offenders(loaded: set[str], forbidden: tuple[str, ...]) -> list[str]:
    """The loaded modules at or under any ``forbidden`` dotted name.

    A forbidden ``repro.*`` name must be a module or package under
    ``src/repro``: one that no longer exists would forbid nothing, and
    the test asserting on it would pass whatever gets imported.
    """
    for name in forbidden:
        path = Path(SRC, *name.split("."))
        if name.startswith("repro.") and not (
            path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()
        ):
            raise ValueError(f"{name} names no module under {SRC}")
    return sorted(
        module
        for module in loaded
        if any(module == f or module.startswith(f + ".") for f in forbidden)
    )


class TestImportSets:
    def test_import_repro_loads_nothing_else_of_the_package(self):
        assert _ours(_loaded("import repro")) == ["repro", "repro._lazy"]

    def test_import_repro_stats_loads_no_statistics(self):
        # Profiler.snapshot() needs ``percentile`` per cell: plain
        # arithmetic, not the stdlib module (and its fractions,
        # decimal, numbers).
        loaded = _loaded("import repro.stats")
        assert "repro.stats.summary" in loaded
        assert not _offenders(loaded, ("statistics", "fractions", "decimal"))

    @pytest.mark.parametrize("argv,code", [(["--help"], 0), (["bogus"], 2)])
    def test_root_help_and_errors_load_no_command_module(self, argv, code):
        # main.COMMANDS holds every summary: the root help and the
        # unknown-command error are written from it alone.
        loaded = _loaded(
            "from repro.cli.main import main\n"
            "out = contextlib.redirect_stdout(io.StringIO())\n"
            "err = contextlib.redirect_stderr(io.StringIO())\n"
            "with out, err:\n"
            "    try:\n"
            f"        main({argv!r})\n"
            "    except SystemExit as exc:\n"
            f"        assert exc.code == {code}, exc.code\n"
        )
        assert _ours(loaded) == ["repro", "repro._lazy", "repro.cli", "repro.cli.main"]

    def test_mc_loads_only_the_checker_layers(self):
        loaded = _loaded_by(MC)
        assert "repro.mc.explore" in loaded
        assert not _offenders(
            loaded,
            (
                "numpy",
                "asyncio",
                "http.server",
                "multiprocessing",
                "repro.vector",
                "repro.core.experiments",
                "repro.fuzz",
                "repro.obs.check",
                "subprocess",
                *OTHER_ALGORITHMS,
                *RUN_DIR_LAYERS,
                *STEP_KERNEL,
            ),
        )
        # 397 when every command module and every package re-export was
        # imported up front, 134 (57 of ours) when the layers under the
        # CLI still imported every optional layer at module level.
        assert len(loaded) < 125, sorted(loaded)
        assert len(_ours(loaded)) <= 45, _ours(loaded)

    def test_a_refuted_mc_run_loads_the_shrinker_and_shrinks_the_same(
        self, tmp_path
    ):
        out = tmp_path / "out"
        loaded = _loaded_by(
            [
                "mc", "uniform-agreement", "--algorithm", "floodset",
                "--n", "3", "--t", "1", "--model", "RWS", "--out", str(out),
            ],
            code=1,
        )
        assert "repro.fuzz.shrink" in loaded
        # The witness document, hashed before the shrinker's import
        # moved behind the REFUTED verdict.
        witness = (out / "mc-witness-00.json").read_bytes()
        assert hashlib.sha256(witness).hexdigest() == (
            "269bc6629b4e0ac93a2c6942b2a9b93d187ae1e3de6c1e9f18d071f65d24a02c"
        )
        assert json.loads(witness)["shrink_attempts"] == 6

    def test_rounds_sweep_loads_no_vector_fuzz_or_mc_layer(self):
        loaded = _loaded_by(SWEEP + ["rounds"])
        assert "repro.runtime.sweep" in loaded
        assert not _offenders(
            loaded,
            (
                "numpy",
                "asyncio",
                "multiprocessing",
                "repro.fuzz",
                "repro.mc",
                "repro.vector",
                "subprocess",
                *OTHER_ALGORITHMS,
                *RUN_DIR_LAYERS,
                *STEP_KERNEL,
            ),
        )
        assert len(_ours(loaded)) <= 38, _ours(loaded)  # 48 at the parent

    def test_a_run_directory_switches_the_campaign_layers_on(self, tmp_path):
        loaded = _loaded_by(SWEEP + ["rounds", "--run-dir", str(tmp_path / "runs")])
        assert set(RUN_DIR_LAYERS) <= loaded
        assert not _offenders(loaded, ("repro.vector", *OTHER_ALGORITHMS))

    @pytest.mark.parametrize("command", ["trace", "check"])
    def test_a_named_run_loads_the_runtime_and_no_campaign_layer(self, command):
        # The named cell goes through runtime.harness.execute_request
        # (and runtime.sweep.check_cell): one in-process rounds cell.
        # Nothing of the SDD candidates or the step kernel: ``check``
        # used to import repro.sdd for a help string alone.
        loaded = _loaded_by([command, "floodset-rws"])
        assert "repro.runtime.harness" in loaded
        assert not _offenders(
            loaded,
            (
                "asyncio",
                "multiprocessing",
                "repro.emulation",
                "repro.fuzz",
                "repro.mc",
                "repro.sdd",
                *STEP_KERNEL,
            ),
        )

    def test_a_forbidden_module_that_does_not_exist_is_refused(self):
        assert _offenders({"repro.mc.explore"}, ("repro.mc",)) == ["repro.mc.explore"]
        with pytest.raises(ValueError, match="repro.broadcast names no module"):
            _offenders(set(), ("repro.broadcast",))

    def test_vector_sweep_adds_the_kernel_and_nothing_else(self):
        # "vector" names the round executor: there is no kernel to add.
        assert _loaded_by(SWEEP + ["vector"]) == _loaded_by(SWEEP + ["rounds"])


# Copied from the parser's output (Python 3.11, COLUMNS=80).
_CHOICES = (
    "{experiments,latency,trace,check,replay,diff,sweep,fuzz,mc,report,causal}"
)
_UNKNOWN_COMMAND_ERROR = (
    "repro: error: argument command: invalid choice: 'bogus' (choose from "
    "'experiments', 'latency', 'trace', 'check', 'replay', 'diff', 'sweep', "
    "'fuzz', 'mc', 'report', 'causal')"
)
_USAGE = f"usage: repro [-h]\n             {_CHOICES}\n             ...\n"
_HELP_ROWS = """\
    experiments         run the E1-E15 suite
    latency             latency profile of an algorithm
    trace               render a named run's rounds (--jsonl: its event trace)
    check               run the trace oracle over a scenario or JSONL file
    replay              re-execute an exported trace and assert event equality
    diff                divergence diff of two traces (Theorem 3.1 lens)
    sweep               execute a scenario space (parallel, cached, checked)
"""


def _repro(*argv: str) -> subprocess.CompletedProcess:
    return _python("-m", "repro", *argv)


class TestDispatcherText:
    def test_help_lists_every_command(self):
        proc = _repro("--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith(_USAGE)
        assert f"positional arguments:\n  {_CHOICES}\n{_HELP_ROWS}" in proc.stdout

    @pytest.mark.skipif(
        sys.version_info[:2] != (3, 11),
        reason="argparse's choice quoting differs across Python versions",
    )
    def test_unknown_command_error_names_every_command(self):
        proc = _repro("bogus")
        assert proc.returncode == 2
        assert proc.stderr == _USAGE + _UNKNOWN_COMMAND_ERROR + "\n"

    def test_missing_command_error(self):
        proc = _repro()
        assert proc.returncode == 2
        assert proc.stderr == (
            _USAGE
            + "repro: error: the following arguments are required: command\n"
        )

    def test_root_usage_is_whole_when_one_module_registered(self):
        # ``mc`` alone is imported, yet the root usage still spells out
        # every command.
        proc = _repro(*MC, "--no-such-flag")
        assert proc.returncode == 2
        assert proc.stderr == (
            _USAGE + "repro: error: unrecognized arguments: --no-such-flag\n"
        )


class TestClosedStdout:
    """``repro ... | head -1``: exit non-zero quietly, no traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["mc", "agreement", "--algorithm", "floodset", "--n", "4", "--t", "2"],
            ["sweep", "--list"],
        ],
        ids=["mc", "sweep-list"],
    )
    def test_broken_pipe_is_not_a_traceback(self, argv):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        # Close the read end before the child (still importing) writes:
        # its first flush then hits EPIPE deterministically.
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert stderr == ""


@pytest.mark.parametrize(
    "package, name",
    [("repro.mc", "explore"), ("repro.fuzz", "shrink"), ("repro.cli", "main")],
)
@pytest.mark.parametrize("first", ["package", "submodule"])
def test_collision_names_stay_callables(package, name, first):
    """A public name equal to its submodule's cannot be lazy (the
    submodule would shadow it); bound eagerly, it survives either
    import order."""
    order = {
        "package": f"import {package}; import {package}.{name}",
        "submodule": f"import {package}.{name}; import {package}",
    }[first]
    proc = _python(
        "-c",
        f"{order}\n"
        f"import sys, types\n"
        f"value = sys.modules[{package!r}].{name}\n"
        f"assert callable(value) and not isinstance(value, types.ModuleType)\n"
        f"from {package} import {name} as again\n"
        f"assert again is value\n"
        f"assert value is sys.modules['{package}.{name}'].{name}\n",
    )
    assert proc.returncode == 0, proc.stderr
