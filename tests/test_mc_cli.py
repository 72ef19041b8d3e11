"""CLI surface of the model checker: `repro mc` and its neighbours."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli.main import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestMcCommand:
    def test_list_properties(self, capsys):
        assert main(["mc", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("agreement", "lambda", "indistinguishability"):
            assert name in out

    def test_an_engine_that_cannot_finish_is_one_error_line(self):
        """The SP emulation sends no null messages, so A1's round 1
        (only p0 sends) never completes: exit 2, not a traceback."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "mc", "agreement", "--algorithm",
             "a1", "--n", "3", "--t", "1", "--model", "RWS",
             "--engine", "rws_on_sp"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        (line,) = [l for l in proc.stderr.splitlines() if l.startswith("error:")]
        assert "did not finish" in line

    def test_a1_clamps_t_with_a_note(self, capsys):
        rc = main(
            ["mc", "agreement", "--algorithm", "A1", "--n", "3", "--t", "2"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "clamping --t 2 -> 1" in captured.err
        assert "HOLDS(exhaustive)" in captured.out

    def test_refuted_run_writes_replayable_witnesses(self, tmp_path, capsys):
        out_dir = tmp_path / "verdicts"
        rc = main(
            [
                "mc",
                "agreement",
                "--algorithm",
                "floodset",
                "--model",
                "RWS",
                "--out",
                str(out_dir),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "REFUTED" in captured.out

        verdict = json.loads((out_dir / "verdict.json").read_text())
        assert verdict["kind"] == "mc-verdict"
        assert verdict["verdict"] == "REFUTED"

        witness = out_dir / "mc-witness-00.json"
        assert witness.exists()
        assert main(["replay", "--repro", str(witness)]) == 0
        replay_out = capsys.readouterr().out
        assert "replay" in replay_out.lower() or replay_out

    @pytest.mark.parametrize("property_name", ["termination", "agreement"])
    def test_default_horizon_covers_the_decision_round(
        self, property_name, capsys
    ):
        # FloodSet decides in round t+1 = 4.  With the horizon defaulting
        # to 3 the runs were cut off before anyone decided: termination
        # printed REFUTED ("p0 never decided") and agreement held
        # vacuously.
        argv = ["mc", property_name, "--algorithm", "floodset"]
        rc = main(argv + ["--n", "4", "--t", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith(
            f"{property_name} [floodset n=4 t=3 RS horizon=4 engine=rounds]: "
            "HOLDS(exhaustive)"
        )

    def test_default_horizon_is_three_up_to_t_two(self, capsys):
        argv = ["mc", "agreement", "--algorithm", "floodset", "--n", "4"]
        for t in ("1", "2"):
            assert main(argv + ["--t", t]) == 0
            out = capsys.readouterr().out
            assert f" t={t} RS horizon=3 engine=rounds]: " in out

    def test_unknown_property_is_a_config_error(self, capsys):
        rc = main(["mc", "liveness"])
        assert rc == 2
        assert "unknown property" in capsys.readouterr().err

    def test_a_non_consensus_registry_entry_is_refused(self, capsys):
        # The registry holds consensus algorithms only: the atomic
        # broadcast it once held is an unknown name, refused before any
        # exploration, with the eight it does hold.
        rc = main(
            ["mc", "agreement", "--algorithm", "atomic-broadcast", "--n", "3"]
        )
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        (line,) = captured.err.splitlines()
        assert line == (
            "error: unknown algorithm 'atomic-broadcast'; choose from ['a1', "
            "'c-opt', 'c-opt-ws', 'eager-floodset-ws', 'f-opt', 'f-opt-ws', "
            "'floodset', 'floodset-ws']"
        )

    def test_no_property_and_no_fixture_is_an_error(self, capsys):
        rc = main(["mc"])
        assert rc == 2
        assert "provide a property" in capsys.readouterr().err

    def test_fixture_classification(self, capsys):
        assert main(["mc", "--fixture", "timeout"]) == 0
        assert "genuine" in capsys.readouterr().out.lower()

    def test_unknown_fixture_is_a_config_error(self, capsys):
        assert main(["mc", "--fixture", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_save_frontier_seeds_fuzz(self, tmp_path, capsys):
        frontier = tmp_path / "frontier.json"
        rc = main(
            [
                "mc",
                "agreement",
                "--algorithm",
                "floodset",
                "--save-frontier",
                str(frontier),
            ]
        )
        assert rc == 0
        assert frontier.exists()
        capsys.readouterr()
        rc = main(
            [
                "fuzz",
                "--budget",
                "6",
                "--seed",
                "0",
                "--frontier",
                str(frontier),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "mc-frontier" in out

    def test_fuzz_frontier_missing_file_is_a_config_error(self, capsys):
        rc = main(
            [
                "fuzz",
                "--budget",
                "4",
                "--seed",
                "0",
                "--frontier",
                "/nonexistent/frontier.json",
            ]
        )
        assert rc == 2
        assert "frontier" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["algorithm", "n", "horizon"])
    def test_fuzz_frontier_lacking_a_field_is_a_config_error(
        self, missing, tmp_path, capsys
    ):
        from repro.mc import explore, save_frontier

        path = tmp_path / "frontier.json"
        save_frontier(explore("floodset", n=3, t=1, model="RS", horizon=3), path)
        document = json.loads(path.read_text())
        del document[missing]
        path.write_text(json.dumps(document))
        rc = main(["fuzz", "--budget", "4", "--frontier", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and str(path) in err and missing in err
        assert len(err.splitlines()) == 1


class TestCheckSddFixture:
    def test_known_fixture_classifies_genuine(self, capsys):
        assert main(["check", "--sdd-fixture", "suspicion"]) == 0
        assert "genuine" in capsys.readouterr().out.lower()

    def test_unknown_fixture_is_a_config_error(self, capsys):
        assert main(["check", "--sdd-fixture", "bogus"]) == 2
