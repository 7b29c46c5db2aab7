"""Figure 3: location entropy declines with the number of check-ins.

Runs the location profiling attack over the synthetic population and
reports mean entropy per check-in-count bucket, plus the share of users
below entropy 2 (the paper reports 88.8 % of its 37,262 users).
"""

from __future__ import annotations


from repro.attack.profiling import (
    bucket_mean_entropy,
    entropy_vs_checkins,
    fraction_below_entropy,
)
from repro.datagen.population import PopulationConfig, iter_population
from repro.experiments.config import SMALL, ExperimentScale
from repro.experiments.tables import ExperimentReport

__all__ = ["run"]

BUCKET_EDGES = [20, 50, 100, 200, 500, 1000, 2000, 5000]


def run(scale: ExperimentScale = SMALL) -> ExperimentReport:
    """Regenerate Figure 3's entropy-vs-check-ins statistics."""
    config = PopulationConfig(n_users=scale.n_users, seed=scale.seed)
    traces = {u.user_id: u.trace for u in iter_population(config)}
    observations = entropy_vs_checkins(traces)
    rows = [
        {"checkins_bucket": label, "users": count, "mean_entropy": mean}
        for label, count, mean in bucket_mean_entropy(observations, BUCKET_EDGES)
    ]
    below2 = fraction_below_entropy(observations, 2.0)
    return ExperimentReport(
        experiment_id="fig3",
        title="location entropy vs number of check-ins",
        rows=rows,
        notes=[
            f"users: {len(observations)} (paper: 37,262)",
            f"fraction with entropy < 2: {below2:.3f} (paper: 0.888)",
            "paper: entropy declines as check-ins grow (routine dominates)",
        ],
        meta={"workload": scale.workload()},
    )
