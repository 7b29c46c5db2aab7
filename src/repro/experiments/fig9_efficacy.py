"""Figure 9: advertising efficacy vs n under various radii (eps = 1).

Measures the probability that an ad requested from the selected reported
location is relevant to the user's true location, as the candidate count n
grows — with the posterior output-selection module doing the selection.

Paper result: thanks to output selection, efficacy does not significantly
decrease as n grows.  The ``selector`` parameter allows the ablation run
with uniform selection, where efficacy *does* decay.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.gaussian import NFoldGaussianMechanism
from repro.core.mechanism import default_rng
from repro.core.params import GeoIndBudget
from repro.core.posterior import OutputSelector, PosteriorSelector, UniformSelector
from repro.data.cache import StageCache, stage_key
from repro.experiments.config import (
    PAPER_DELTA,
    PAPER_RADII_M,
    PAPER_TARGETING_RADIUS_M,
    SMALL,
    ExperimentScale,
)
from repro.experiments.tables import ExperimentReport
from repro.metrics.efficacy import efficacy_samples_batched
from repro.obs.trace import span as _obs_span
from repro.parallel import parallel_map

__all__ = ["run", "efficacy_for", "EFFICACY_STAGE_VERSION"]

#: Bump when the efficacy sweep changes output for unchanged parameters.
#: "2": trials run through efficacy_samples_batched (three array passes
#: per sweep point), which consumes the rng in batched call order.
EFFICACY_STAGE_VERSION = "2"


def efficacy_for(
    epsilon: float,
    r: float,
    n: int,
    trials: int,
    seed: int,
    selector_kind: str = "posterior",
) -> float:
    """Mean advertising efficacy for one parameter combination."""
    budget = GeoIndBudget(r=r, epsilon=epsilon, delta=PAPER_DELTA, n=n)
    rng = default_rng(seed)
    mechanism = NFoldGaussianMechanism(budget, rng=rng)
    selector: OutputSelector
    if selector_kind == "posterior":
        selector = PosteriorSelector(mechanism.posterior_sigma, rng=rng)
    elif selector_kind == "uniform":
        selector = UniformSelector(rng=rng)
    else:
        raise ValueError(f"unknown selector kind: {selector_kind}")
    samples = efficacy_samples_batched(
        mechanism,
        selector,
        trials=trials,
        targeting_radius=PAPER_TARGETING_RADIUS_M,
        rng=rng,
    )
    return float(samples.mean())


def _fig9_combo(combos: List[int], rng: np.random.Generator, payload) -> list:
    """Chunk worker: one efficacy row per n, sweeping all radii.

    Each n reuses its explicit ``scale.seed + n`` seed, so rows do not
    depend on the chunk schedule or worker count.
    """
    scale, epsilon, selector_kind = payload
    rows = []
    for n in combos:
        with _obs_span("fig9.sweep_point", n=n, epsilon=epsilon):
            row = {"n": n}
            for r in PAPER_RADII_M:
                row[f"efficacy(r={r:.0f})"] = efficacy_for(
                    epsilon,
                    r,
                    n,
                    trials=scale.trials,
                    seed=scale.seed + n,
                    selector_kind=selector_kind,
                )
            rows.append(row)
    return rows


def _row_key(
    n: int, epsilon: float, selector_kind: str, scale: ExperimentScale
) -> str:
    return stage_key(
        "fig9-efficacy",
        {
            "n": n,
            "epsilon": epsilon,
            "delta": PAPER_DELTA,
            "selector": selector_kind,
            "radii": PAPER_RADII_M,
            "trials": scale.trials,
            "seed": scale.seed + n,
        },
        EFFICACY_STAGE_VERSION,
    )


def run(
    scale: ExperimentScale = SMALL,
    epsilon: float = 1.0,
    ns: Sequence[int] = tuple(range(1, 11)),
    selector_kind: str = "posterior",
    workers: Optional[int] = 1,
    cache: Optional[StageCache] = None,
) -> ExperimentReport:
    """Regenerate Figure 9's efficacy-vs-n sweep.

    Sweep points are individually cached; partial recomputes stay
    bit-identical because each n consumes its own ``scale.seed + n`` seed.
    """
    if cache is None:
        cache = StageCache.disabled()
    ns = list(ns)
    by_n = {}
    missing = []
    for n in ns:
        arrays = cache.load(_row_key(n, epsilon, selector_kind, scale))
        if arrays is None:
            missing.append(n)
        else:
            values = arrays["efficacy"]
            row = {"n": n}
            for r, v in zip(PAPER_RADII_M, values):
                row[f"efficacy(r={r:.0f})"] = float(v)
            by_n[n] = row
    if missing:
        computed = parallel_map(
            _fig9_combo,
            missing,
            workers=workers,
            seed=scale.seed,
            chunk_size=1,
            payload=(scale, epsilon, selector_kind),
        )
        for n, row in zip(missing, computed):
            values = np.asarray(
                [row[f"efficacy(r={r:.0f})"] for r in PAPER_RADII_M], dtype=float
            )
            cache.store(
                _row_key(n, epsilon, selector_kind, scale), {"efficacy": values}
            )
            by_n[n] = row
    rows = [by_n[n] for n in ns]
    return ExperimentReport(
        experiment_id="fig9",
        title=f"advertising efficacy vs n (eps={epsilon}, {selector_kind} selection)",
        rows=rows,
        notes=[
            f"trials per point: {scale.trials} (paper: 100,000)",
            "paper: with posterior output selection, efficacy does not "
            "significantly decrease as n grows",
        ],
        meta={
            "workers": workers,
            "workload": scale.workload(),
            "cache": cache.stats() if cache.enabled else None,
        },
    )
