"""Unit tests for the experiment CLI runner."""

import pytest

from repro.experiments.runner import EXPERIMENTS, main


class TestRunnerCli:
    def test_experiment_registry_complete(self):
        """Every paper table/figure with evaluation content is registered."""
        expected = {
            "table1", "fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9",
            "table2", "table3", "ext_adaptive",
        }
        assert set(EXPERIMENTS) == expected

    def test_runs_single_experiment(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "google" in out

    def test_runs_multiple(self, capsys):
        assert main(["table1", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_unknown_scale_errors(self):
        with pytest.raises(SystemExit):
            main(["table1", "--scale", "galactic"])


class TestConfigHandoff:
    """``repro experiments`` hands its parsed config to the runner as is."""

    def test_cli_passes_its_plane_config(self, monkeypatch, tmp_path):
        from repro import cli
        from repro.data.plane import DataPlaneConfig
        from repro.experiments import runner

        seen = {}

        def fake_run(requested, scale, plane, seed=None, trace=None, charts=False):
            seen.update(requested=requested, scale=scale, plane=plane, seed=seed)
            return 0

        monkeypatch.setattr(runner, "run_experiments", fake_run)
        argv = ["experiments", "fig6", "table2", "--scale", "medium",
                "--workers", "3", "--cache", "--cache-dir", str(tmp_path),
                "--seed", "7"]
        assert cli.main(argv) == 0
        assert seen == {
            "requested": ["fig6", "table2"],
            "scale": "medium",
            "plane": DataPlaneConfig(workers=3, cache=True, cache_dir=tmp_path),
            "seed": 7,
        }

    def test_cli_reports_an_unknown_experiment_once(self, capsys):
        from repro import cli

        assert cli.main(["experiments", "fig99"]) == 2
        err = capsys.readouterr().err
        assert err.count("unknown experiment(s): fig99") == 1

    def test_cli_rejects_tier_on_untiered_experiment(self, capsys):
        from repro import cli

        assert cli.main(["experiments", "table1", "--tier", "city"]) == 2
        assert "--tier only applies to" in capsys.readouterr().err

    def test_run_experiments_validates_before_running(self, capsys):
        from repro.data.plane import DataPlaneConfig
        from repro.experiments.runner import RequestError, run_experiments

        with pytest.raises(RequestError):
            run_experiments(["table1", "fig99"], "small", DataPlaneConfig())
        assert capsys.readouterr().out == ""
