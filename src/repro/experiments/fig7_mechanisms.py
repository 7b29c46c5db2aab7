"""Figure 7: utilization rate of the three mechanisms vs n.

Fixes eps = 1, r = 500 m, R = 5 km and sweeps the number of obfuscated
outputs n = 1..10, measuring the utilization-rate distribution for:

* the n-fold Gaussian mechanism (sufficient-statistic calibration),
* the naive post-processing baseline, and
* the plain-composition Gaussian baseline.

Paper result: at n = 10 the n-fold mechanism reaches ~100 % UR, naive
post-processing ~58 %, plain composition ~20 % — and composition *loses*
utility as n grows.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.baselines import (
    NaivePostProcessingMechanism,
    PlainCompositionMechanism,
)
from repro.core.gaussian import NFoldGaussianMechanism
from repro.core.mechanism import LPPM, default_rng
from repro.core.params import GeoIndBudget
from repro.data.cache import StageCache, stage_key
from repro.experiments.config import (
    PAPER_ALPHA,
    PAPER_DELTA,
    PAPER_TARGETING_RADIUS_M,
    SMALL,
    ExperimentScale,
)
from repro.experiments.tables import ExperimentReport
from repro.metrics.utilization import summarize_utilization, utilization_samples
from repro.parallel import parallel_map

__all__ = ["run", "MECHANISM_FACTORIES", "ur_for_mechanism", "UR_STAGE_VERSION"]

#: Bump when the UR sweep changes output for unchanged parameters.
UR_STAGE_VERSION = "1"

MECHANISM_FACTORIES: Dict[str, Callable[[GeoIndBudget, np.random.Generator], LPPM]] = {
    "n-fold gaussian": lambda budget, rng: NFoldGaussianMechanism(budget, rng=rng),
    "naive post-processing": lambda budget, rng: NaivePostProcessingMechanism(
        budget, rng=rng
    ),
    "plain composition": lambda budget, rng: PlainCompositionMechanism(
        budget, rng=rng
    ),
}


def ur_for_mechanism(
    name: str,
    budget: GeoIndBudget,
    trials: int,
    mc_samples: int,
    seed: int,
) -> np.ndarray:
    """UR samples for one (mechanism, budget) combination."""
    factory = MECHANISM_FACTORIES[name]
    rng = default_rng(seed)
    mechanism = factory(budget, rng)
    return utilization_samples(
        mechanism,
        trials=trials,
        targeting_radius=PAPER_TARGETING_RADIUS_M,
        mc_samples=mc_samples,
        rng=rng,
    )


def _fig7_combo(combos: List[tuple], rng: np.random.Generator, payload) -> list:
    """Chunk worker: one (mechanism, n) sweep point per combo.

    Every combo carries its own explicit seed, so results are independent
    of the chunk schedule and worker count by construction.
    """
    scale, epsilon, r = payload
    rows = []
    for name, n in combos:
        budget = GeoIndBudget(r=r, epsilon=epsilon, delta=PAPER_DELTA, n=n)
        samples = ur_for_mechanism(
            name, budget, scale.trials, scale.mc_samples, seed=scale.seed + n
        )
        summary = summarize_utilization(samples, PAPER_ALPHA)
        rows.append(
            {
                "mechanism": name,
                "n": n,
                "mean_UR": summary.mean,
                f"min_UR@{PAPER_ALPHA}": summary.minimal_at_alpha,
            }
        )
    return rows


def _combo_key(name: str, n: int, epsilon: float, r: float, scale: ExperimentScale) -> str:
    return stage_key(
        "fig7-ur",
        {
            "mechanism": name,
            "n": n,
            "epsilon": epsilon,
            "r": r,
            "delta": PAPER_DELTA,
            "trials": scale.trials,
            "mc_samples": scale.mc_samples,
            "seed": scale.seed + n,
            "alpha": PAPER_ALPHA,
        },
        UR_STAGE_VERSION,
    )


def run(
    scale: ExperimentScale = SMALL,
    epsilon: float = 1.0,
    r: float = 500.0,
    ns: Sequence[int] = tuple(range(1, 11)),
    workers: Optional[int] = 1,
    cache: Optional[StageCache] = None,
) -> ExperimentReport:
    """Regenerate Figure 7's mechanism utilization comparison.

    Each sweep point is keyed in the stage cache on its full parameter
    set; only cache-missing combos are recomputed.  Partial recomputes
    stay bit-identical because every combo consumes its own explicit
    ``scale.seed + n`` seed, never the chunk schedule's RNG.
    """
    if cache is None:
        cache = StageCache.disabled()
    combos = [(name, n) for name in MECHANISM_FACTORIES for n in ns]
    by_combo: Dict[tuple, dict] = {}
    missing = []
    for name, n in combos:
        arrays = cache.load(_combo_key(name, n, epsilon, r, scale))
        if arrays is None:
            missing.append((name, n))
        else:
            stats = arrays["stats"]
            by_combo[(name, n)] = {
                "mechanism": name,
                "n": n,
                "mean_UR": float(stats[0]),
                f"min_UR@{PAPER_ALPHA}": float(stats[1]),
            }
    if missing:
        computed = parallel_map(
            _fig7_combo,
            missing,
            workers=workers,
            seed=scale.seed,
            chunk_size=1,
            payload=(scale, epsilon, r),
        )
        for (name, n), row in zip(missing, computed):
            cache.store(
                _combo_key(name, n, epsilon, r, scale),
                {
                    "stats": np.asarray(
                        [row["mean_UR"], row[f"min_UR@{PAPER_ALPHA}"]], dtype=float
                    )
                },
            )
            by_combo[(name, n)] = row
    rows = [by_combo[combo] for combo in combos]
    return ExperimentReport(
        experiment_id="fig7",
        title=f"utilization rate by mechanism (eps={epsilon}, r={r:.0f} m)",
        rows=rows,
        notes=[
            f"trials per point: {scale.trials} (paper: 100,000)",
            "paper at n=10: n-fold ~100%, naive post-processing ~58%, "
            "plain composition ~20% (and composition degrades with n)",
        ],
        meta={
            "workers": workers,
            "workload": scale.workload(),
            "cache": cache.stats() if cache.enabled else None,
        },
    )
