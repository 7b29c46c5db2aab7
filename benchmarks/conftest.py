"""Shared infrastructure for the reproduction benchmarks.

Every bench regenerates one of the paper's tables/figures via its
experiment driver, times it with pytest-benchmark, prints the rendered
report, and archives it under ``benchmarks/results/`` so the numbers are
inspectable after a quiet pytest run.  Alongside the human-readable
``<id>.txt`` archive, each report also lands as a machine-readable
``BENCH_<id>.json`` record (:mod:`repro.obs.record`): the wall-clock
seconds, plus the worker count, workload and per-stage timings the
driver surfaced via ``ExperimentReport.meta``.
"""

from __future__ import annotations

import math
import pathlib
from typing import Optional

import pytest

from repro.experiments.config import ExperimentScale
from repro.experiments.tables import ExperimentReport
from repro.obs import record as bench_record

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Bench scale: big enough for stable shapes, small enough for minutes.
BENCH = ExperimentScale(name="bench", trials=800, n_users=50, mc_samples=768)


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def _benchmark_wall_seconds(request) -> Optional[float]:
    """Wall-clock of the benchmarked call, or None when nothing was timed
    (no ``benchmark`` fixture, or ``--benchmark-disable``)."""
    if "benchmark" not in request.fixturenames:
        return None
    stats = getattr(request.getfixturevalue("benchmark"), "stats", None)
    stats = getattr(stats, "stats", stats)
    mean = getattr(stats, "mean", None)
    return float(mean) if mean is not None and math.isfinite(mean) else None


@pytest.fixture
def archive(results_dir, request):
    """Print a report and persist it to benchmarks/results/<id>.{txt,json}."""

    def _archive(report: ExperimentReport) -> ExperimentReport:
        text = report.render()
        print("\n" + text)
        (results_dir / f"{report.experiment_id}.txt").write_text(text + "\n")
        record = bench_record.from_report(report, _benchmark_wall_seconds(request))
        bench_record.write(record, results_dir / record.filename)
        return report

    return _archive
