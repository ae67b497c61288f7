"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import EXPERIMENT_INDEX, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_crash_spec_parsing(self):
        args = build_parser().parse_args(
            ["consensus", "--crash", "4:1:2", "--crash", "3:0:0"]
        )
        assert args.crash == [(4, (1, 2)), (3, (0, 0))]

    def test_bad_crash_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["consensus", "--crash", "4:1"])

    def test_recovery_spec_parsing(self):
        args = build_parser().parse_args(
            [
                "consensus",
                "--crash", "4:1:2",
                "--recover-at", "4:10",
                "--durability", "amnesia",
            ]
        )
        assert args.recover_at == [(4, 10)]
        assert args.durability == "amnesia"

    def test_bad_recovery_specs(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["consensus", "--recover-at", "4"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["consensus", "--recover-at", "4:0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["consensus", "--durability", "forgetful"]
            )


class TestCommands:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "outlier-attack" in out
        assert "view-split" in out

    def test_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for eid in EXPERIMENT_INDEX:
            assert eid in out

    def test_consensus_roundtrip(self, capsys, tmp_path):
        dump = tmp_path / "t.json"
        code = main(
            [
                "consensus",
                "--n", "5", "--d", "1", "--eps", "0.3", "--seed", "1",
                "--crash", "4:1:2",
                "--dump", str(dump),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "decisions" in out
        assert "paper properties" in out
        assert dump.exists()
        assert main(["verify", str(dump), "--no-matrix"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_scenario_run(self, capsys):
        assert main(["scenario", "view-split", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "decisions" in out

    def test_unknown_scenario(self, capsys):
        assert main(["scenario", "nope"]) == 2

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["consensus", "--workload", "nope"])

    def test_consensus_with_matrix_checks(self, capsys):
        code = main(
            ["consensus", "--n", "5", "--d", "1", "--eps", "0.4",
             "--seed", "2", "--matrix"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "theorem1-evolution" in out
        assert "lemma3-ergodicity" in out
        assert "claim1-columns" in out

    def test_sweep_command(self, capsys):
        assert main(["sweep", "view-split", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "sweep of 'view-split'" in out
        assert "ALL" in out
        assert "engine: workers=1" in out

    def test_sweep_parallel_workers(self, capsys):
        # Smoke: the process-pool path end to end through the CLI.
        assert main(
            ["sweep", "view-split", "--seeds", "2", "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "ALL" in out
        assert "engine: workers=2" in out

    def test_sweep_checkpoint_and_resume(self, capsys, tmp_path):
        run_dir = str(tmp_path / "sweep-run")
        assert main(
            ["sweep", "view-split", "--seeds", "2", "--run-dir", run_dir]
        ) == 0
        first = capsys.readouterr().out
        assert "executed=2 reused=0" in first
        assert (tmp_path / "sweep-run" / "results.jsonl").exists()
        assert main(
            ["sweep", "view-split", "--seeds", "2", "--resume", run_dir]
        ) == 0
        second = capsys.readouterr().out
        assert "executed=0 reused=2" in second

    def test_sweep_progress_lines(self, capsys):
        assert main(
            ["sweep", "view-split", "--seeds", "2", "--progress"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("[ok]") == 2

    def test_sweep_unknown_scenario(self, capsys):
        assert main(["sweep", "nope"]) == 2

    def test_consensus_identical_workload(self, capsys):
        code = main(
            ["consensus", "--n", "5", "--d", "1", "--eps", "0.5",
             "--workload", "identical"]
        )
        assert code == 0

    def test_consensus_reports_reliability_counters(self, capsys):
        assert main(["consensus", "--n", "5", "--d", "1", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "retransmissions=" in out
        assert "dup_drops=" in out

    def test_sweep_reports_reliability_counters(self, capsys):
        assert main(["sweep", "view-split", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "retransmissions=" in out
        assert "dup_drops=" in out

    def test_consensus_with_durable_recovery(self, capsys):
        code = main(
            [
                "consensus",
                "--n", "5", "--d", "1", "--eps", "0.3", "--seed", "1",
                "--crash", "4:1:2",
                "--recover-at", "4:8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recovery: recovered=[4]" in out
        assert "checkpoint_saves=" in out

    def test_consensus_amnesia_recovery(self, capsys):
        code = main(
            [
                "consensus",
                "--n", "5", "--d", "1", "--eps", "0.3", "--seed", "1",
                "--crash", "4:1:2",
                "--recover-at", "4:8",
                "--durability", "amnesia",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recovery: recovered=[4]" in out
        assert "restarts=1" in out

    def test_recover_at_without_crash_rejected(self, capsys):
        code = main(
            ["consensus", "--n", "5", "--d", "1", "--recover-at", "4:8"]
        )
        assert code == 2
        assert "--crash" in capsys.readouterr().err

    def test_recover_at_for_uncrashed_pid_rejected(self, capsys):
        code = main(
            [
                "consensus",
                "--n", "5", "--d", "1",
                "--crash", "4:1:2",
                "--recover-at", "3:8",
            ]
        )
        assert code == 2
        assert "invalid fault plan" in capsys.readouterr().err
