"""The BENCH record: strict writer, schema-checked loader, committed archives."""

import json
import math
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from repro.data.tiers import TIERS
from repro.experiments.config import SMALL
from repro.obs import record as bench_record
from repro.obs.record import BENCH_SCHEMA, BenchRecord

RESULTS_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
ARCHIVES = sorted(RESULTS_DIR.glob("BENCH_*.json"))


def _record(**changes):
    base = BenchRecord(
        experiment_id="x",
        title="t",
        wall_seconds=1.5,
        workers=2,
        workload=SMALL.workload(),
        stage_seconds={"a": 0.5},
        rows=[{"users": 10, "seconds": 0.25}],
        notes=["n"],
        spans={"table2.pin": {"count": 1, "seconds": 0.2}},
    )
    return replace(base, **changes)


def _strict(text):
    def reject(name):
        raise ValueError(f"non-finite constant {name}")

    return json.loads(text, parse_constant=reject)


class TestWriteLoad:
    def test_round_trip(self, tmp_path):
        record = _record()
        path = bench_record.write(record, tmp_path / record.filename)
        assert path.name == "BENCH_x.json"
        assert _strict(path.read_text())["schema"] == BENCH_SCHEMA
        assert bench_record.load(path) == record

    @pytest.mark.parametrize(
        "changes",
        [
            {"wall_seconds": math.nan},
            {"stage_seconds": {"a": math.inf}},
            {"rows": [{"seconds": math.nan}]},
        ],
    )
    def test_writer_refuses_non_finite_numbers(self, tmp_path, changes):
        path = tmp_path / "BENCH_x.json"
        with pytest.raises(ValueError):
            bench_record.write(_record(**changes), path)
        assert not path.exists()

    @pytest.mark.parametrize("schema", [None, 0, BENCH_SCHEMA + 1])
    def test_load_rejects_other_schemas(self, tmp_path, schema):
        doc = _record().to_dict()
        if schema is None:
            del doc["schema"]
        else:
            doc["schema"] = schema
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"schema {schema!r}"):
            bench_record.load(path)

    def test_load_rejects_fields_outside_the_schema(self, tmp_path):
        doc = _record().to_dict()
        doc["scale"] = doc.pop("workload")
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="missing \\['workload'\\]"):
            bench_record.load(path)

    def test_load_rejects_nan(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(_record().to_dict()).replace("1.5", "NaN"))
        with pytest.raises(ValueError, match="NaN"):
            bench_record.load(path)


class TestWorkload:
    def test_scale_preset(self):
        assert SMALL.workload() == asdict(SMALL)

    def test_tier_names_the_tier_population(self):
        assert SMALL.workload("metro-100k") == {
            "name": "metro-100k",
            "n_users": TIERS["metro-100k"].n_users,
            "seed": SMALL.seed,
        }


class TestCommittedArchives:
    """Every committed archive is strict JSON of the current schema."""

    def test_archives_exist(self):
        assert len(ARCHIVES) >= 30

    @pytest.mark.parametrize("path", ARCHIVES, ids=lambda p: p.name)
    def test_parses_strictly_with_schema(self, path):
        assert _strict(path.read_text())["schema"] == BENCH_SCHEMA
        assert bench_record.load(path).filename == path.name

    def test_tier_archives_describe_their_tier(self):
        tiered = [r for r in map(bench_record.load, ARCHIVES) if r.tier is not None]
        assert len(tiered) >= 8
        for record in tiered:
            assert record.experiment_id.startswith(f"table2_{record.tier}_")
            assert record.workload["name"] == record.tier
            assert record.workload["n_users"] == TIERS[record.tier].n_users
