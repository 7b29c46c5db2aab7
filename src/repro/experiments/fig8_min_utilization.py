"""Figure 8: minimal utilization rate at confidence alpha = 0.9.

Sweeps the n-fold Gaussian mechanism over n = 1..10 for both privacy
levels (eps = 1, 1.5) and all indistinguishability radii (r = 500..800 m),
reporting the (1 - alpha) quantile of the UR distribution (Eq. 24).

Paper result: generating more outputs raises the minimal UR — from ~0.6
(n=1) to ~0.9 (n=10) at eps = 1.5, and by ~60 % in general at eps = 1.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.gaussian import NFoldGaussianMechanism
from repro.core.mechanism import default_rng
from repro.core.params import GeoIndBudget
from repro.experiments.config import (
    PAPER_ALPHA,
    PAPER_DELTA,
    PAPER_EPSILONS,
    PAPER_RADII_M,
    PAPER_TARGETING_RADIUS_M,
    SMALL,
    ExperimentScale,
)
from repro.experiments.tables import ExperimentReport
from repro.metrics.utilization import minimal_utilization, utilization_samples
from repro.parallel import parallel_map

__all__ = ["run", "minimal_ur_for"]


def minimal_ur_for(
    epsilon: float,
    r: float,
    n: int,
    trials: int,
    mc_samples: int,
    seed: int,
    alpha: float = PAPER_ALPHA,
) -> float:
    """Minimal UR of the n-fold mechanism for one parameter combination."""
    budget = GeoIndBudget(r=r, epsilon=epsilon, delta=PAPER_DELTA, n=n)
    rng = default_rng(seed)
    mechanism = NFoldGaussianMechanism(budget, rng=rng)
    samples = utilization_samples(
        mechanism,
        trials=trials,
        targeting_radius=PAPER_TARGETING_RADIUS_M,
        mc_samples=mc_samples,
        rng=rng,
    )
    return minimal_utilization(samples, alpha)


def _fig8_combo(combos: List[tuple], rng: np.random.Generator, payload) -> list:
    """Chunk worker: one (epsilon, n) row per combo, sweeping all radii.

    Each combo reuses its explicit ``scale.seed + n`` seed, so rows do not
    depend on the chunk schedule or worker count.
    """
    scale = payload
    rows = []
    for epsilon, n in combos:
        row = {"epsilon": epsilon, "n": n}
        for r in PAPER_RADII_M:
            row[f"min_UR(r={r:.0f})"] = minimal_ur_for(
                epsilon,
                r,
                n,
                trials=scale.trials,
                mc_samples=scale.mc_samples,
                seed=scale.seed + n,
            )
        rows.append(row)
    return rows


def run(
    scale: ExperimentScale = SMALL,
    ns: Sequence[int] = tuple(range(1, 11)),
    workers: Optional[int] = 1,
) -> ExperimentReport:
    """Regenerate Figure 8's minimal-UR parameter sweep."""
    combos = [(epsilon, n) for epsilon in PAPER_EPSILONS for n in ns]
    rows = parallel_map(
        _fig8_combo,
        combos,
        workers=workers,
        seed=scale.seed,
        chunk_size=1,
        payload=scale,
    )
    return ExperimentReport(
        experiment_id="fig8",
        title=f"minimal utilization rate at alpha={PAPER_ALPHA}",
        rows=rows,
        notes=[
            f"trials per point: {scale.trials} (paper: 100,000)",
            "paper: min UR rises with n; eps=1.5 goes ~0.6 (n=1) to ~0.9 "
            "(n=10); eps=1 improves ~60% from n=1 to n=10",
        ],
        meta={"workers": workers, "workload": scale.workload()},
    )
