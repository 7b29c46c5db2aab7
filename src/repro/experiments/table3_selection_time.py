"""Table III: output-selection time as the user count grows.

The paper measures the edge's per-tick cost of answering one ad request
per user via posterior output selection, for 2,000..32,000 users
(90 ms .. 1,377 ms on the Pi 3 — near-linear, milliseconds-scale).  We
run the same workload: every user holds a pinned 10-candidate set; each
tick draws one posterior-weighted output per user, batched through
:meth:`OutputSelector.select_index_batch` and fanned out over
:func:`repro.parallel.parallel_map` when ``workers > 1``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.gaussian import NFoldGaussianMechanism
from repro.core.mechanism import default_rng
from repro.core.params import GeoIndBudget
from repro.core.posterior import PosteriorSelector
from repro.data.cache import StageCache
from repro.data.stages import candidate_table
from repro.experiments.config import PAPER_DELTA, PAPER_NFOLD_N, SMALL, ExperimentScale
from repro.experiments.tables import ExperimentReport
from repro.metrics.timing import measure_scaling
from repro.parallel import parallel_map, resolve_workers

__all__ = ["run", "selection_workload", "PAPER_SIZES"]

PAPER_SIZES = (2_000, 4_000, 8_000, 16_000, 32_000)

#: Paper-reported Pi 3 timings (milliseconds).
PAPER_TIMES_MS = {2_000: 90, 4_000: 175, 8_000: 350, 16_000: 698, 32_000: 1_377}

#: Users per selection batch: bounds transient weight matrices while
#: keeping the per-batch numpy work large enough to amortise dispatch.
SELECTION_BATCH = 4_096

#: Minimum tick size before the process pool is worth its fork cost; the
#: per-tick work is milliseconds-scale, so small ticks stay in-process on
#: the vectorised batch path.
POOL_MIN_USERS = 65_536


def _select_chunk(starts: List[int], rng: np.random.Generator, payload) -> list:
    """Chunk worker: one posterior selection per user in each batch."""
    candidate_sets, sigma, batch = payload
    selector = PosteriorSelector(sigma, rng=rng)
    for start in starts:
        selector.select_index_batch(candidate_sets[start : start + batch])
    return [None] * len(starts)


def selection_workload(
    budget: GeoIndBudget,
    max_users: int,
    seed: int,
    workers: Optional[int] = 1,
    cache: Optional[StageCache] = None,
) -> Callable[[int], None]:
    """Per-size workload: one posterior selection per user per tick."""
    # Pre-pin one candidate set per user (table state, not measured) —
    # cache-served when a StageCache is given, same draws either way.
    candidate_sets = candidate_table(budget, max_users, seed, cache)
    sigma = NFoldGaussianMechanism(budget, rng=default_rng(seed)).posterior_sigma

    def workload(n_users: int) -> None:
        sets = candidate_sets[:n_users]
        if workers is not None and workers > 1 and n_users >= POOL_MIN_USERS:
            starts = list(range(0, n_users, SELECTION_BATCH))
            parallel_map(
                _select_chunk,
                starts,
                workers=workers,
                seed=seed,
                payload=(sets, sigma, SELECTION_BATCH),
            )
        else:
            selector = PosteriorSelector(sigma, rng=default_rng(seed))
            for start in range(0, n_users, SELECTION_BATCH):
                selector.select_index_batch(sets[start : start + SELECTION_BATCH])

    return workload


def run(
    scale: ExperimentScale = SMALL,
    sizes: Sequence[int] = PAPER_SIZES,
    workers: Optional[int] = None,
    cache: Optional[StageCache] = None,
) -> ExperimentReport:
    """Regenerate Table III's selection-time scaling rows."""
    workers = resolve_workers(workers)
    budget = GeoIndBudget(r=500.0, epsilon=1.0, delta=PAPER_DELTA, n=PAPER_NFOLD_N)
    workload = selection_workload(
        budget, max_users=max(sizes), seed=scale.seed, workers=workers, cache=cache
    )
    timings = measure_scaling(workload, sizes, repeats=2, warmup=1)
    rows = [
        {
            "users": t.size,
            "milliseconds": t.seconds * 1_000.0,
            "us_per_user": t.per_item_ms * 1_000.0,
        }
        for t in timings
    ]
    ratios = [
        timings[i + 1].seconds / timings[i].seconds for i in range(len(timings) - 1)
    ]
    return ExperimentReport(
        experiment_id="table3",
        title="output selection time vs number of users",
        rows=rows,
        notes=[
            "paper (Pi 3, Scala): "
            + ", ".join(f"{k}: {v}ms" for k, v in PAPER_TIMES_MS.items()),
            "paper shape: ~2x time per 2x users; measured doubling ratios: "
            + ", ".join(f"{r:.2f}" for r in ratios),
            f"workers: {workers}",
        ],
        meta={
            "workers": workers,
            "workload": scale.workload(),
            "stage_seconds": {str(t.size): t.seconds for t in timings},
            "cache": cache.stats() if cache is not None and cache.enabled else None,
        },
    )
