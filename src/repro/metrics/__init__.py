"""Utility metrics: utilization rate, efficacy, attack success, timing."""

from repro.metrics.efficacy import efficacy_of_report, efficacy_samples
from repro.metrics.timing import (
    ChunkTiming,
    Stopwatch,
    TimingRow,
    measure_scaling,
    summarize_chunks,
)
from repro.metrics.utilization import (
    DEFAULT_TARGETING_RADIUS_M,
    UtilizationSummary,
    minimal_utilization,
    summarize_utilization,
    utilization_rate,
    utilization_samples,
)

__all__ = [
    "utilization_rate",
    "utilization_samples",
    "minimal_utilization",
    "summarize_utilization",
    "UtilizationSummary",
    "DEFAULT_TARGETING_RADIUS_M",
    "efficacy_of_report",
    "efficacy_samples",
    "Stopwatch",
    "TimingRow",
    "measure_scaling",
    "ChunkTiming",
    "summarize_chunks",
]

from repro.metrics.bootstrap import ConfidenceInterval, bootstrap_ci, proportion_ci

__all__ += ["ConfidenceInterval", "bootstrap_ci", "proportion_ci"]
