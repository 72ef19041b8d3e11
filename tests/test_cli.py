"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli.main import (
    ALGORITHMS,
    SCENARIO_ALIASES,
    SCENARIOS,
    build_parser,
    main,
)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiments_flags(self):
        args = build_parser().parse_args(
            ["experiments", "--ids", "E2", "--jobs", "2"]
        )
        assert args.ids == ["E2"]
        assert args.jobs == 2

    def test_unknown_algorithm_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["latency", "nope"])


class TestCommands:
    # The headline table, the SDD story and the commit rates each print
    # through the experiment that runs them: E15, E1 + E2 and E3.
    def test_summary_prints_table(self, capsys):
        assert main(["experiments", "--ids", "E15"]) == 0
        out = capsys.readouterr().out
        assert "A1" in out and "FloodSet" in out
        assert "Λ" in out

    def test_sdd_prints_refutations(self, capsys):
        assert main(["experiments", "--ids", "E1", "E2"]) == 0
        out = capsys.readouterr().out
        assert "refuted" in out
        assert "SDD solvable in SS" in out

    def test_commit_prints_rates(self, capsys):
        assert main(["experiments", "--ids", "E3"]) == 0
        out = capsys.readouterr().out
        assert "SyncCommit" in out
        assert "commit rate" in out

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_latency_runs_for_every_algorithm(self, name, capsys):
        assert main(["latency", name]) == 0
        out = capsys.readouterr().out
        assert "lat=" in out

    @pytest.mark.parametrize(
        "name", sorted(SCENARIOS) + sorted(SCENARIO_ALIASES)
    )
    def test_trace_renders_every_scenario(self, name, capsys):
        assert main(["trace", name]) == 0
        out = capsys.readouterr().out
        assert "round" in out

    def test_experiments_single_id(self, capsys):
        assert main(["experiments", "--ids", "E2"]) == 0
        out = capsys.readouterr().out
        assert "[E2]" in out and "PASS" in out

    @pytest.mark.parametrize("exp_id", ["E99", "X9", "X1"])
    def test_experiments_unknown_id_exits_2(self, exp_id, capsys):
        assert main(["experiments", "--ids", "E2", exp_id]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: unknown experiment {exp_id!r}")
        known = [f"E{i}" for i in range(1, 16)]
        assert captured.err.endswith(f"; choose from {known}\n")
        assert len(captured.err.splitlines()) == 1
