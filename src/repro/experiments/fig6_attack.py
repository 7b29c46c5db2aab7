"""Figure 6: longitudinal attack success, one-time geo-IND vs Edge-PrivLocAd.

For every user in the population the full year of check-ins is reported
through either deployment and attacked:

* **one-time geo-IND** — independent planar Laplace noise per check-in at
  levels l in {ln 2, ln 4, ln 6} over 200 m (the original geo-IND paper's
  settings).  Paper result: 75-93 % of top-1 locations recovered within
  200 m; >50 % of top-2 at the looser levels.
* **Edge-PrivLocAd (permanent 10-fold Gaussian)** — each user's
  check-ins replay through the serve actor
  (:class:`~repro.serve.actor.UserActor`), the one definition of the
  Section V release stream: η-frequent tops are built window by window
  and pinned to candidate sets (r = 500 m, eps in {1, 1.5},
  delta = 0.01) served through posterior output selection; every other
  check-in — including everything before the first window closes — gets
  fresh 1-fold Gaussian noise.  Paper result: <1 % recovered within
  200 m, <=6.8 % within 500 m.

The pipeline is columnar end to end: the population travels to pool
workers as a :class:`~repro.data.columns.PopulationColumns` payload
(shared-memory arrays, not pickled object lists), each worker reads CSR
slices, and the per-user inference errors come back as one ``(U, 2)``
float array per stage.  Those error arrays are the unit of caching — a
warm :class:`~repro.data.cache.StageCache` skips population generation
and the attacks entirely while producing bit-identical rows, because the
rows are a pure function of the cached errors.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.attack.deobfuscation import DeobfuscationAttack
from repro.core.accounting import LongitudinalExposureAccountant
from repro.core.gaussian import NFoldGaussianMechanism
from repro.core.laplace import PlanarLaplaceMechanism
from repro.core.params import GeoIndBudget
from repro.data.cache import StageCache, stage_key
from repro.data.columns import PopulationColumns, chunk_csr
from repro.data.mmapstore import release_pages
from repro.data.stages import population_columns
from repro.data.tiers import tier_columns, tier_config
from repro.datagen.population import PopulationConfig
from repro.edge.clock import VirtualTimeSource
from repro.experiments.config import (
    PAPER_DELTA,
    PAPER_EPSILONS,
    PAPER_NFOLD_N,
    PAPER_ONETIME_LEVELS,
    PAPER_ONETIME_RADIUS_M,
    SMALL,
    ExperimentScale,
)
from repro.experiments.tables import ExperimentReport
from repro.geo.point import Point
from repro.kernels.obfuscate import one_time_laplace_population
from repro.metrics.bootstrap import proportion_ci
from repro.obs.trace import span as _obs_span
from repro.parallel import parallel_map
from repro.serve.actor import EdgeConfig, UserActor

__all__ = ["run", "ATTACK_STAGE_VERSION"]

THRESHOLDS_M = (200.0, 500.0)
DEFENSE_R_M = 500.0

#: Bump when the attack stages change output for unchanged parameters.
#: "2": obfuscation moved to the population kernels — noise now comes
#: from per-user spawned streams instead of a shared per-chunk rng.
#: "3": the defended stages replay each user through the serve actor
#: (windowed tops) instead of a whole-history oracle model.
ATTACK_STAGE_VERSION = "3"

#: A user's inferred top locations, best first, as plain coordinates.
InferredXY = List[Tuple[float, float]]


def _attack_one_time_chunk(
    indices: List[int], rng: np.random.Generator, payload
) -> List[InferredXY]:
    """Chunk worker: obfuscate + attack one slice of the population.

    Obfuscation is one :func:`one_time_laplace_population` pass over the
    chunk's CSR slice; each user's noise comes from that user's own
    spawned stream, so outputs depend only on ``(seed, user id)`` — never
    on the worker count or the chunk schedule.  The chunk rng is unused
    on purpose.
    """
    pop, level, seed = payload
    mechanism = PlanarLaplaceMechanism.from_level(level, PAPER_ONETIME_RADIUS_M)
    attack = DeobfuscationAttack.against(mechanism)
    ck = pop.checkins
    lo, hi = indices[0], indices[-1] + 1
    cxs, cys, coffsets = chunk_csr(ck.xs, ck.ys, ck.offsets, lo, hi)
    with _obs_span("fig6.obfuscation", deployment="one-time", users=len(indices)):
        reported = one_time_laplace_population(
            cxs, cys, coffsets, mechanism.epsilon, seed,
            user_ids=np.arange(lo, hi, dtype=np.int64),
        )
        # Every check-in is an independent epsilon-per-metre release, and
        # under one-time deployment they compose: this accountant records
        # exactly the budget blow-up the figure demonstrates.
        LongitudinalExposureAccountant().observe(
            mechanism.epsilon, count=int(cxs.size)
        )
    with _obs_span("fig6.attack", deployment="one-time", users=len(indices)):
        out = []
        for j in range(len(indices)):
            obs_xy = reported[coffsets[j]:coffsets[j + 1]]
            inferred = attack.estimate_xy(obs_xy, 2)
            out.append([(p.x, p.y) for p in inferred])
    # File-backed columns: hand this window's pages back so worker RSS
    # stays one window deep (no-op for heap columns).
    release_pages(ck.xs, ck.ys, ck.offsets)
    return out


def _attack_defended_chunk(
    indices: List[int], rng: np.random.Generator, payload
) -> List[InferredXY]:
    """Chunk worker: Edge-PrivLocAd deployment + attack for one user slice.

    Each user's check-ins are replayed in trace order through a fresh
    :class:`~repro.serve.actor.UserActor` — the Section V edge pipeline
    that ``repro simulate`` runs on the serve shards — so the attacked
    stream is exactly what the edge releases: η-frequent tops built
    window by window, fresh nomadic noise until a window closes.  The
    actor seeds its own spawn-keyed stream from ``(seed, user id)`` and
    charges its own ledger and accountant, so the output is invariant to
    chunking and the chunk rng is unused.
    """
    pop, epsilon, n, seed = payload
    budget = GeoIndBudget(r=DEFENSE_R_M, epsilon=epsilon, delta=PAPER_DELTA, n=n)
    config = EdgeConfig(budget=budget)
    attack = DeobfuscationAttack.against(NFoldGaussianMechanism(budget))
    ck = pop.checkins
    streams = []
    with _obs_span("fig6.obfuscation", deployment="defended", users=len(indices)):
        for uid in indices:
            # The actor is a per-event state machine (a window rollover
            # pins tops mid-stream), so the replay is one user and one
            # check-in at a time by construction.
            sl = ck.user_slice(uid)  # reprolint: disable=PERF002
            actor = UserActor(
                str(uid), uid, seed, config, time_source=VirtualTimeSource()
            )
            reported = np.empty((sl.stop - sl.start, 2))
            for k, (t, x, y) in enumerate(
                zip(ck.timestamps[sl].tolist(), ck.xs[sl].tolist(), ck.ys[sl].tolist())
            ):
                point, _ = actor.handle_checkin(t, x, y)
                reported[k] = point.x, point.y
            streams.append(reported)
    with _obs_span("fig6.attack", deployment="defended", users=len(indices)):
        out = []
        for reported in streams:
            inferred = attack.estimate_xy(reported, 2)
            out.append([(p.x, p.y) for p in inferred])
    release_pages(ck.xs, ck.ys, ck.timestamps, ck.offsets)
    return out


def _infer_one_time(
    pop: PopulationColumns, level: float, seed: int, workers: Optional[int]
) -> List[InferredXY]:
    return parallel_map(
        _attack_one_time_chunk,
        range(pop.n_users),
        workers=workers,
        seed=seed,
        payload=(pop, level, seed),
    )


def _infer_defended(
    pop: PopulationColumns,
    epsilon: float,
    seed: int,
    n: int,
    workers: Optional[int],
) -> List[InferredXY]:
    return parallel_map(
        _attack_defended_chunk,
        range(pop.n_users),
        workers=workers,
        seed=seed,
        payload=(pop, epsilon, n, seed),
    )


def _error_rows(inferred: List[InferredXY], pop: PopulationColumns) -> np.ndarray:
    """Per-user inference errors as a ``(U, 2)`` float array.

    ``errors[i, k]`` is the distance between the rank-``k+1`` inference
    and user ``i``'s true rank-``k+1`` location; ``inf`` when the attack
    produced no inference at that rank, ``NaN`` when the user has no true
    location there (ineligible — excluded from the rate denominator).
    """
    errors = np.full((len(inferred), 2), np.nan)
    for i, guesses in enumerate(inferred):
        truths = pop.user_true_tops(i)[:2]
        for k, truth in enumerate(truths):
            if k < len(guesses):
                errors[i, k] = Point(*guesses[k]).distance_to(truth)
            else:
                errors[i, k] = np.inf
    return errors


def _rates_from_errors(errors: np.ndarray) -> Dict[str, float]:
    """Success rates per (rank, threshold) from an error array.

    Same floats as ``success_rate`` over the object outcomes: integer hit
    counts over integer eligible counts.
    """
    row = {}
    for rank in (1, 2):
        col = errors[:, rank - 1]
        eligible = ~np.isnan(col)
        n_eligible = int(eligible.sum())
        for thr in THRESHOLDS_M:
            key = f"top{rank}_within_{int(thr)}m"
            if n_eligible == 0:
                row[key] = 0.0
            else:
                row[key] = int((col[eligible] <= thr).sum()) / n_eligible
    return row


def run(
    scale: ExperimentScale = SMALL,
    workers: Optional[int] = 1,
    cache: Optional[StageCache] = None,
    tier: Optional[str] = None,
    mmap: bool = False,
) -> ExperimentReport:
    """Regenerate Figure 6's attack-success comparison.

    ``workers`` fans the per-user attack loops out over a process pool;
    rows are bit-identical for any worker count at the same seed.  With a
    warm ``cache``, the per-stage error arrays load straight from disk
    and population generation is skipped — rows stay bit-identical
    because they are computed from the same arrays either way.

    ``tier`` swaps the scale's population for a named dataset tier
    (``city`` .. ``metro-1M``); ``mmap`` serves it out of core with
    memmap-backed columns shipped to workers by path+offset.  The error
    stages are keyed on the tier's population config, so cached errors
    are shared between mmap and heap serving — they are bit-identical.
    """
    if cache is None:
        cache = StageCache.disabled()
    if tier is not None:
        config = tier_config(tier)
    else:
        config = PopulationConfig(n_users=scale.n_users, seed=scale.seed)
    stage_seconds: Dict[str, float] = {}
    pop: Optional[PopulationColumns] = None

    def get_pop() -> PopulationColumns:
        nonlocal pop
        if pop is None:
            start = time.perf_counter()
            with _obs_span("fig6.datagen", n_users=config.n_users, mmap=mmap):
                if tier is not None:
                    pop = tier_columns(tier, cache, workers=workers, mmap=mmap)
                else:
                    pop = population_columns(config, cache)
            stage_seconds["population"] = time.perf_counter() - start
        return pop

    def stage_errors(stage: str, params: Dict[str, object], compute) -> np.ndarray:
        key = stage_key(stage, {"population": config, **params}, ATTACK_STAGE_VERSION)
        start = time.perf_counter()
        with _obs_span("fig6.stage", stage=stage, **params):
            cached = cache.load(key)
            if cached is None:
                inferred = compute()
                errors = _error_rows(inferred, get_pop())
                cache.store(key, {"errors": errors})
            else:
                errors = cached["errors"]
        stage_seconds[stage.replace("fig6-", "") + f" {params}"] = (
            time.perf_counter() - start
        )
        return errors

    rows = []
    ci_notes: List[str] = []
    for level in PAPER_ONETIME_LEVELS:
        errors = stage_errors(
            "fig6-onetime",
            {"level": level, "seed": scale.seed + 1},
            lambda: _infer_one_time(get_pop(), level, scale.seed + 1, workers),
        )
        rows.append(
            {
                "mechanism": "one-time geo-IND",
                "parameter": f"l=ln({round(math.exp(level))})",
                **_rates_from_errors(errors),
            }
        )
    for epsilon in PAPER_EPSILONS:
        errors = stage_errors(
            "fig6-defended",
            {"epsilon": epsilon, "n": PAPER_NFOLD_N, "seed": scale.seed + 2},
            lambda: _infer_defended(
                get_pop(), epsilon, scale.seed + 2, PAPER_NFOLD_N, workers
            ),
        )
        rows.append(
            {
                "mechanism": "permanent 10-fold Gaussian",
                "parameter": f"eps={epsilon}",
                **_rates_from_errors(errors),
            }
        )
        top1 = errors[:, 0][~np.isnan(errors[:, 0])]
        if top1.size:
            ci = proportion_ci(int((top1 <= THRESHOLDS_M[1]).sum()), int(top1.size))
            ci_notes.append(
                f"eps={epsilon}: defended top-1 within 500 m {ci.estimate:.1%}, "
                f"95% bootstrap CI [{ci.low:.1%}, {ci.high:.1%}] (paper 6.8%)"
            )
    return ExperimentReport(
        experiment_id="fig6",
        title="longitudinal attack success rate",
        rows=rows,
        notes=[
            f"users: {config.n_users} (paper: 37,262)",
            "paper: one-time top-1 within 200 m: 75% (ln2), >90% (ln4, ln6); "
            "top-2 >50% (ln4, ln6)",
            "paper: defended top-1/top-2 within 200 m <1%; within 500 m "
            "6.8% / 5%",
            *ci_notes,
        ],
        meta={
            "workers": workers,
            "workload": scale.workload(tier),
            "tier": tier,
            "mmap": mmap if tier is not None else None,
            "stage_seconds": stage_seconds,
            "cache": cache.stats() if cache.enabled else None,
        },
    )