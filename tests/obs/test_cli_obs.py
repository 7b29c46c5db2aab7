"""The unified CLI option set, ``repro obs``, and the trace renderers."""

import pytest

from repro.cli import build_parser, main
from repro.obs.metrics import MetricsRegistry
from repro.obs.render import render_prometheus


class TestSharedOptionSet:
    @pytest.mark.parametrize(
        "argv",
        [
            ["experiments", "table1"],
            ["simulate"],
            ["attack"],
            ["verify"],
        ],
    )
    def test_every_work_subcommand_accepts_common_flags(self, argv):
        args = build_parser().parse_args(argv + ["--seed", "3", "--trace", "t.jsonl"])
        assert args.seed == 3
        assert args.trace == "t.jsonl"

    @pytest.mark.parametrize(
        "argv", [["experiments", "table1"], ["experiments", "all"]]
    )
    def test_data_plane_subcommands_accept_its_flags(self, argv):
        args = build_parser().parse_args(argv + ["--workers", "2", "--cache"])
        assert args.workers == 2
        assert args.cache is True

    @pytest.mark.parametrize("command", ["simulate", "serve", "attack", "verify"])
    def test_subcommands_without_a_data_plane_reject_its_flags(self, command):
        """No flag is accepted and then ignored: --workers is a usage error."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--workers", "2"])
        assert exit_info.value.code == 2

    def test_fleet_rejects_data_plane_flags(self):
        """``repro fleet`` runs the serve workload, which reads no data plane."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["fleet", "run", "churn10", "--workers", "2"])
        assert exit_info.value.code == 2

    def test_no_cache_spelling_kept(self):
        args = build_parser().parse_args(["experiments", "table1", "--no-cache"])
        assert args.cache is False

    def test_seed_defaults_to_none_for_handler_fallbacks(self):
        for argv in (["simulate"], ["attack"], ["verify"]):
            assert build_parser().parse_args(argv).seed is None


class TestObsSubcommand:
    def _write_trace(self, tmp_path):
        from repro import obs

        path = str(tmp_path / "trace.jsonl")
        obs.enable(path)
        with obs.span("edge.run", devices=2):
            obs.get_registry().counter("edge.requests").inc(10)
        obs.shutdown()
        return path

    def test_summary_renders_tree_and_metrics(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        assert main(["obs", path]) == 0
        out = capsys.readouterr().out
        assert "edge.run" in out
        assert "devices=2" in out
        assert "edge.requests = 10" in out

    def test_prometheus_format(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        assert main(["obs", path, "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE edge_requests_total counter" in out
        assert "edge_requests_total 10" in out

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["obs", str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot read trace" in capsys.readouterr().err

    def test_corrupt_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type":"trace"\n')
        assert main(["obs", str(path)]) == 1
        assert "cannot read trace" in capsys.readouterr().err


class TestTracedCommands:
    def test_simulate_writes_trace(self, tmp_path, capsys):
        path = tmp_path / "sim.jsonl"
        code = main(
            ["simulate", "--users", "3", "--campaigns", "20", "--trace", str(path)]
        )
        assert code == 0
        from repro.obs.render import read_trace

        trace = read_trace(str(path))
        assert any(s.name == "simulate" for s in trace.spans)
        assert trace.metrics["counters"]["serve.events"] > 0

    def test_experiments_forwards_seed_and_trace(self, tmp_path, capsys):
        path = tmp_path / "fig9.jsonl"
        code = main(
            ["experiments", "fig9", "--seed", "99", "--trace", str(path)]
        )
        assert code == 0
        from repro.obs.render import read_trace

        trace = read_trace(str(path))
        roots = [s for s in trace.spans if s.name == "experiment"]
        assert roots and roots[0].attrs["id"] == "fig9"


class TestPrometheusRenderer:
    def test_histogram_exposition_is_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("stage.seconds", (0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            hist.observe(v)
        text = render_prometheus(registry.snapshot())
        assert 'stage_seconds_bucket{le="0.1"} 1' in text
        assert 'stage_seconds_bucket{le="1.0"} 2' in text
        assert 'stage_seconds_bucket{le="+Inf"} 3' in text
        assert "stage_seconds_count 3" in text

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus(None) == ""
        assert render_prometheus(MetricsRegistry().snapshot()) == ""
