"""The bench harness: cold/warm archives and the regression gate."""

import json

import pytest

from repro.data.tiers import TIERS
from repro.experiments import table2_obfuscation_time
from repro.experiments.bench import (
    compare_benches,
    main,
    run_cold_warm,
    run_shm_bench,
)
from repro.experiments.config import ExperimentScale
from repro.experiments.tables import ExperimentReport

TINY = ExperimentScale(name="tiny", trials=30, n_users=5, mc_samples=64)


def _bench(wall, stages=None):
    return {
        "experiment_id": "x",
        "wall_seconds": wall,
        "stage_seconds": stages or {},
    }


class TestCompare:
    def test_equal_is_clean(self):
        assert compare_benches(_bench(1.0), _bench(1.0)) == []

    def test_faster_is_clean(self):
        assert compare_benches(_bench(2.0), _bench(0.5)) == []

    def test_wall_clock_regression_flagged(self):
        problems = compare_benches(_bench(1.0), _bench(1.5))
        assert len(problems) == 1
        assert "wall_seconds" in problems[0]

    def test_threshold_boundary(self):
        assert compare_benches(_bench(1.0), _bench(1.09)) == []
        assert compare_benches(_bench(1.0), _bench(1.11)) != []

    def test_small_absolute_regressions_ignored(self):
        # 100% slower but only 10 ms absolute: scheduler noise, not a regression.
        assert compare_benches(_bench(0.01), _bench(0.02)) == []

    def test_stage_regression_flagged(self):
        old = _bench(1.0, {"attack": 0.9, "tiny": 0.001})
        new = _bench(1.0, {"attack": 1.8, "tiny": 0.002})
        problems = compare_benches(old, new)
        assert len(problems) == 1
        assert "attack" in problems[0]

    def test_unshared_stages_ignored(self):
        old = _bench(1.0, {"only_old": 5.0})
        new = _bench(1.0, {"only_new": 5.0})
        assert compare_benches(old, new) == []

    def test_missing_wall_seconds_tolerated(self):
        assert compare_benches({"stage_seconds": {}}, _bench(9.0)) == []


class TestCompareCli:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_clean_compare_exits_zero(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", _bench(1.0))
        new = self._write(tmp_path, "new.json", _bench(0.9))
        assert main(["--compare", old, new]) == 0
        assert "ok" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", _bench(1.0))
        new = self._write(tmp_path, "new.json", _bench(2.0))
        assert main(["--compare", old, new]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_custom_threshold(self, tmp_path):
        old = self._write(tmp_path, "old.json", _bench(1.0))
        new = self._write(tmp_path, "new.json", _bench(1.5))
        assert main(["--compare", old, new, "--threshold", "0.6"]) == 0


class TestColdWarm:
    def test_fig9_cold_warm_archives(self, tmp_path):
        cold, warm = run_cold_warm(
            "fig9",
            TINY,
            workers=1,
            cache_dir=tmp_path / "cache",
            results_dir=tmp_path / "results",
        )
        assert cold["rows"] == warm["rows"]
        assert warm["cache"]["hits"] > 0
        assert warm["cache"]["stores"] == 0
        assert (tmp_path / "results" / "BENCH_fig9_cache_cold.json").is_file()
        archived = json.loads(
            (tmp_path / "results" / "BENCH_fig9_cache_warm.json").read_text()
        )
        assert archived["experiment_id"] == "fig9_cache_warm"
        assert archived["scale"]["name"] == "tiny"

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_cold_warm("nope", TINY, cache_dir=tmp_path)

    def test_tier_run_archives_the_tier_as_its_scale(self, tmp_path, monkeypatch):
        def fake_run(scale, **kwargs):
            return ExperimentReport(
                "table2", "t", meta={"tier": kwargs["tier"], "mode": "kernel"}
            )

        monkeypatch.setattr(table2_obfuscation_time, "run", fake_run)
        cold, warm = run_cold_warm(
            "table2", TINY, tier="city", mode="kernel", cache_dir=tmp_path
        )
        expected = {"name": "city", "n_users": TIERS["city"].n_users, "seed": TINY.seed}
        assert cold["scale"] == warm["scale"] == expected
        assert warm["experiment_id"] == "table2_city_kernel_cache_warm"


class TestShmBench:
    def test_transport_metrics(self, tmp_path):
        result = run_shm_bench(
            n_points=40_000, n_tasks=8, workers=2, results_dir=tmp_path
        )
        assert result["pickled_payload_bytes"] < 4096
        if result["pool_used"]:
            assert result["shared_arrays"] == 1
            assert result["shared_bytes"] == result["payload_nbytes"]
        assert (tmp_path / "BENCH_shm_fanout.json").is_file()


class TestStageKeyNotes:
    def test_shared_keys_produce_no_notes(self):
        from repro.experiments.bench import stage_key_notes

        old = _bench(1.0, {"attack": 0.9})
        new = _bench(1.0, {"attack": 1.0})
        assert stage_key_notes(old, new) == []

    def test_missing_and_added_keys_reported(self):
        from repro.experiments.bench import stage_key_notes

        old = _bench(1.0, {"datagen.v1": 2.0, "attack": 0.9})
        new = _bench(1.0, {"datagen.v2": 2.0, "attack": 0.9})
        notes = stage_key_notes(old, new)
        assert len(notes) == 2
        assert "'datagen.v1'" in notes[0] and "OLD" in notes[0]
        assert "'datagen.v2'" in notes[1] and "NEW" in notes[1]

    def test_disjoint_keys_warn_wall_clock_only(self):
        from repro.experiments.bench import stage_key_notes

        notes = stage_key_notes(
            _bench(1.0, {"a": 1.0}), _bench(1.0, {"b": 1.0})
        )
        assert any("wall clock" in n for n in notes)

    def test_compare_cli_prints_notes_without_failing(self, tmp_path, capsys):
        old_path = tmp_path / "old.json"
        new_path = tmp_path / "new.json"
        old_path.write_text(json.dumps(_bench(1.0, {"stage.v1": 1.0})))
        new_path.write_text(json.dumps(_bench(1.0, {"stage.v2": 1.0})))
        assert main(["--compare", str(old_path), str(new_path)]) == 0
        out = capsys.readouterr().out
        assert "stage.v1" in out and "stage.v2" in out
        assert "ok (" in out
