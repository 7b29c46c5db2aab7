"""Unit tests for the command-line interface."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestExperimentsCommand:
    def test_runs_table1(self, capsys):
        assert main(["experiments", "table1"]) == 0
        out = capsys.readouterr().out
        assert "google" in out


class TestSimulateCommand:
    def test_small_simulation(self, capsys):
        assert main(["simulate", "--users", "3", "--campaigns", "30"]) == 0
        out = capsys.readouterr().out
        assert "requests served" in out
        assert "relevance ratio" in out

    def test_simulation_with_attack(self, capsys):
        assert main(
            ["simulate", "--users", "3", "--campaigns", "20", "--attack"]
        ) == 0
        out = capsys.readouterr().out
        assert "attack success" in out

    def test_output_independent_of_hash_seed_and_edge_count(self):
        """Stdout depends only on the seed and inputs: never on the
        interpreter's str-hash salt or on how many edges serve the users."""
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        outputs = set()
        for hash_seed, edges in (("1", "1"), ("2", "1"), ("1", "3"), ("2", "3")):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "simulate", "--users", "3",
                 "--campaigns", "20", "--attack", "--edges", edges],
                env=env, capture_output=True, check=True,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        assert b"attack success" in outputs.pop()


class TestAttackCommand:
    def test_case_study_attack(self, capsys):
        assert main(["attack", "--level", "ln4"]) == 0
        out = capsys.readouterr().out
        assert "full year" in out
        assert "home recovered" in out


class TestServeCommand:
    def test_replay_run_reports_and_writes_artifacts(self, capsys, tmp_path):
        import json

        prom = tmp_path / "serve.prom"
        bench = tmp_path / "BENCH_serve.json"
        code = main(
            ["serve", "--replay", "--shards", "2", "--duration-events", "120",
             "--users", "5", "--campaigns", "30", "--inline",
             "--prom-file", str(prom), "--bench-json", str(bench)]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["processed"] == 120
        assert report["dropped"] == 0
        # The exactness contract surfaces in the report itself.
        assert report["epsilon_spent"] == report["audit_epsilon"]
        assert len(report["response_digest"]) == 64
        prom_text = prom.read_text()
        assert "serve_events_total" in prom_text
        assert "privacy_epsilon_spent" in prom_text
        payload = json.loads(bench.read_text())
        assert payload["experiment_id"] == "serve"
        assert payload["wall_seconds"] > 0

    def test_duration_sizes_workload_from_qps(self, capsys):
        code = main(
            ["serve", "--replay", "--shards", "1", "--inline", "--users", "4",
             "--campaigns", "20", "--qps", "50", "--duration", "2"]
        )
        assert code == 0
        import json

        report = json.loads(capsys.readouterr().out)
        assert report["processed"] == 100


class TestVerifyCommand:
    def test_valid_budget_passes(self, capsys):
        code = main(
            ["verify", "--r", "500", "--epsilon", "1.0", "--delta", "0.01",
             "--n", "10", "--samples", "20000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "analytic check:  OK" in out
