"""Table II: obfuscation processing time as the user count grows.

The paper measures, on a Raspberry Pi 3, the time for an edge device to
build every user's location profile and generate their candidate
locations, for 2,000..32,000 users (340 s .. 4,014 s — near-linear).  We
measure the same workload on this host: cluster each user's trace into a
profile, compute the eta-frequent set, and pin n-fold candidates.

Two execution modes measure the same workload:

* ``mode="kernel"`` (default) — the population kernels of
  :mod:`repro.kernels`: each chunk of users is profiled, eta-reduced and
  pinned in whole-chunk array passes.
* ``mode="loop"`` — the per-user reference: one profile / eta set /
  ``obfuscate_batch`` call per user.

Both modes draw each user's pinning noise from the user's own
``SeedSequence.spawn`` stream, so their candidate outputs are
bit-identical to each other and across ``--workers N`` — the digest in
the report meta pins that.  Populations come either from the classic
replicated coords pool (``tier=None``, laptop-friendly) or from a named
dataset tier (``tier="city"`` / ``"metro-100k"``) served through the
stage cache.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.gaussian import NFoldGaussianMechanism
from repro.core.params import GeoIndBudget
from repro.data.cache import StageCache
from repro.data.columns import CheckInColumns, chunk_csr
from repro.data.mmapstore import release_pages
from repro.data.stages import population_coords_pool
from repro.data.tiers import tier_columns
from repro.edge.location_management import DEFAULT_ETA
from repro.experiments.config import PAPER_DELTA, PAPER_NFOLD_N, SMALL, ExperimentScale
from repro.experiments.tables import ExperimentReport
from repro.kernels.frequent import population_eta_tops
from repro.kernels.gaussian import pin_candidates_population, user_rng
from repro.kernels.profiles import population_profiles
from repro.metrics.timing import measure_scaling
from repro.obs.trace import span as _obs_span
from repro.parallel import parallel_map, resolve_workers
from repro.profiles.frequent import eta_frequent_xy
from repro.profiles.profile import LocationProfile

__all__ = [
    "run",
    "obfuscation_workload",
    "obfuscation_digest",
    "PAPER_SIZES",
    "DEFAULT_SIZES",
    "POOL_MIN_USERS",
]

#: The paper's workload sizes.
PAPER_SIZES = (2_000, 4_000, 8_000, 16_000, 32_000)
#: Scaled-down default so the bench completes in seconds.
DEFAULT_SIZES = (200, 400, 800, 1_600, 3_200)

#: Paper-reported Pi 3 timings for the notes (seconds).
PAPER_TIMES_S = {2_000: 340, 4_000: 627, 8_000: 1_166, 16_000: 2_090, 32_000: 4_014}

#: Minimum batch size before the process pool is worth its fork cost.
POOL_MIN_USERS = 2_000


def _chunk_csr(
    ck_arrays: Tuple[np.ndarray, np.ndarray, np.ndarray], indices: List[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rebase a contiguous user range of a CSR payload to local offsets."""
    xs, ys, offsets = ck_arrays
    return chunk_csr(xs, ys, offsets, indices[0], indices[-1] + 1)


def _obfuscate_users_kernel(
    indices: List[int], rng: np.random.Generator, payload
) -> list:
    """Chunk worker (kernel mode): three array passes over the whole chunk."""
    (xs, ys, offsets), budget, seed = payload
    cxs, cys, coffsets = _chunk_csr((xs, ys, offsets), indices)
    mechanism = NFoldGaussianMechanism(budget)
    with _obs_span("table2.profile", users=len(indices)):
        profiles = population_profiles(cxs, cys, coffsets)
    with _obs_span("table2.eta", users=len(indices)):
        top_xs, top_ys, top_offsets = population_eta_tops(profiles, DEFAULT_ETA)
    with _obs_span("table2.pin", users=len(indices)):
        # Timing benchmark: the pinned candidates are discarded, nothing
        # is released to any consumer, so there is no budget to charge.
        # reprolint: disable=BUD101
        pin_candidates_population(
            top_xs, top_ys, top_offsets, mechanism.sigma, budget.n, seed,
            user_ids=np.asarray(indices, dtype=np.int64),
        )
    # Surrender this chunk's window of file-backed pages (no-op for heap
    # columns): worker residency stays one window, not the whole tier.
    release_pages(xs, ys, offsets)
    return [None] * len(indices)


def _obfuscate_users_loop(
    indices: List[int], rng: np.random.Generator, payload
) -> list:
    """Chunk worker (loop mode): the per-user reference path."""
    (xs, ys, offsets), budget, seed = payload
    for i in indices:
        sl = slice(offsets[i], offsets[i + 1])
        profile = LocationProfile.from_xy(xs[sl], ys[sl])
        top_xs, top_ys = eta_frequent_xy(profile, DEFAULT_ETA)
        if len(top_xs):
            # The per-user reference that kernel mode is measured against:
            # one Generator per user is the point of this path.
            # reprolint: disable=PERF001
            mechanism = NFoldGaussianMechanism(budget, rng=user_rng(seed, i))
            # Timing benchmark: output discarded, nothing released.
            # reprolint: disable=BUD101
            mechanism.obfuscate_batch(np.column_stack((top_xs, top_ys)))
    release_pages(xs, ys, offsets)
    return [None] * len(indices)


_MODE_WORKERS = {"kernel": _obfuscate_users_kernel, "loop": _obfuscate_users_loop}


def _digest_chunk(indices: List[int], rng: np.random.Generator, payload) -> list:
    """Chunk worker: sha256 of the chunk's pinned candidate bytes.

    Hashes the kernel path's output per chunk; chunk boundaries are a
    pure function of the item count, so the combined digest is invariant
    to the worker count — and the loop path produces the same bytes.
    """
    (xs, ys, offsets), budget, seed = payload
    cxs, cys, coffsets = _chunk_csr((xs, ys, offsets), indices)
    mechanism = NFoldGaussianMechanism(budget)
    profiles = population_profiles(cxs, cys, coffsets)
    top_xs, top_ys, top_offsets = population_eta_tops(profiles, DEFAULT_ETA)
    # Equivalence check: the candidates are reduced to a sha256 digest
    # (which carries no coordinates) and discarded, not released.
    # reprolint: disable=BUD101
    candidates = pin_candidates_population(
        top_xs, top_ys, top_offsets, mechanism.sigma, budget.n, seed,
        user_ids=np.asarray(indices, dtype=np.int64),
    )
    h = hashlib.sha256()
    # Derived (heap) arrays, not tier columns: hashing requires the exact
    # contiguous bytes the kernels produced.
    # reprolint: disable=PERF003
    h.update(np.ascontiguousarray(top_offsets).tobytes())
    # reprolint: disable=PERF003
    h.update(np.ascontiguousarray(candidates).tobytes())
    digest = h.hexdigest()
    release_pages(xs, ys, offsets)
    return [digest] + [None] * (len(indices) - 1)


def obfuscation_digest(
    ck: CheckInColumns,
    n_users: int,
    budget: GeoIndBudget,
    seed: int,
    workers: Optional[int] = 1,
) -> str:
    """Combined sha256 of the first ``n_users`` users' pinned candidates.

    The worker-invariance witness for the bench artifacts: the same value
    must come back for any ``workers`` (and from either workload mode,
    since both draw from the same per-user streams).
    """
    chunk_digests = parallel_map(
        _digest_chunk,
        range(n_users),
        workers=workers,
        seed=seed,
        payload=((ck.xs, ck.ys, ck.offsets), budget, seed),
    )
    combined = hashlib.sha256()
    for d in chunk_digests:
        if d is not None:
            combined.update(d.encode())
    return combined.hexdigest()


def obfuscation_workload(
    ck: CheckInColumns,
    budget: GeoIndBudget,
    workers: Optional[int] = 1,
    seed: int = 0,
    mode: str = "kernel",
) -> Callable[[int], None]:
    """Per-size workload callable for :func:`measure_scaling`.

    ``workload(n)`` profiles + eta-reduces + pins the first ``n`` users of
    ``ck`` in the requested mode.
    """
    if mode not in _MODE_WORKERS:
        raise ValueError(f"unknown mode {mode!r}; expected one of {sorted(_MODE_WORKERS)}")
    fn = _MODE_WORKERS[mode]
    payload = ((ck.xs, ck.ys, ck.offsets), budget, seed)

    def workload(n_users: int) -> None:
        with _obs_span("table2.obfuscation", users=n_users, mode=mode):
            parallel_map(
                fn,
                range(n_users),
                workers=workers if n_users >= POOL_MIN_USERS else 1,
                seed=seed,
                payload=payload,
            )

    return workload


def _pool_columns(coords_pool: Sequence[np.ndarray], n_users: int) -> CheckInColumns:
    """Tile a coords pool into an ``n_users``-user CSR workload input."""
    pool = list(coords_pool)
    picks = [pool[i % len(pool)] for i in range(n_users)]
    lengths = np.asarray([len(c) for c in picks], dtype=np.int64)
    stacked = (
        np.concatenate(picks) if picks else np.empty((0, 2), dtype=float)
    ).reshape(-1, 2)
    return CheckInColumns(
        xs=stacked[:, 0],
        ys=stacked[:, 1],
        timestamps=np.zeros(len(stacked)),
        offsets=np.concatenate([[0], np.cumsum(lengths)]),
    )


def run(
    scale: ExperimentScale = SMALL,
    sizes: Optional[Sequence[int]] = DEFAULT_SIZES,
    pool_size: int = 50,
    workers: Optional[int] = None,
    cache: Optional[StageCache] = None,
    tier: Optional[str] = None,
    mode: str = "kernel",
    with_digest: bool = False,
    mmap: bool = False,
) -> ExperimentReport:
    """Regenerate Table II's obfuscation-time scaling rows.

    With ``tier`` set, the workload runs over that named dataset tier's
    CSR population (sizes default to quarter/half/full tier) instead of
    the replicated coords pool.  Population generation is a test fixture,
    not measured work — it is served through the stage cache when one is
    given.  ``mmap`` serves the tier out of core (memmap-backed columns,
    shipped to workers by path+offset); candidates are bit-identical to
    the in-memory run, only peak RSS changes.  ``with_digest`` adds the
    (untimed) candidate digest of the largest size to the report meta.
    """
    workers = resolve_workers(workers)
    budget = GeoIndBudget(r=500.0, epsilon=1.0, delta=PAPER_DELTA, n=PAPER_NFOLD_N)
    pool_start = time.perf_counter()
    if tier is not None:
        with _obs_span("table2.datagen", tier=tier, mmap=mmap):
            ck = tier_columns(tier, cache, workers=workers, mmap=mmap).checkins
        if sizes is None or sizes is DEFAULT_SIZES:
            sizes = (ck.n_users // 4, ck.n_users // 2, ck.n_users)
    else:
        if sizes is None:
            sizes = DEFAULT_SIZES
        with _obs_span("table2.datagen", pool_size=pool_size):
            coords_pool = population_coords_pool(pool_size, scale.seed, cache)
        ck = _pool_columns(coords_pool, max(sizes))
    pool_seconds = time.perf_counter() - pool_start

    workload = obfuscation_workload(
        ck, budget, workers=workers, seed=scale.seed, mode=mode
    )
    timings = measure_scaling(workload, sizes, warmup=1)
    rows = [
        {"users": t.size, "seconds": t.seconds, "ms_per_user": t.per_item_ms}
        for t in timings
    ]
    ratios = [
        timings[i + 1].seconds / timings[i].seconds for i in range(len(timings) - 1)
    ]
    digest = (
        obfuscation_digest(ck, max(sizes), budget, scale.seed, workers=workers)
        if with_digest
        else None
    )
    return ExperimentReport(
        experiment_id="table2",
        title="obfuscation processing time vs number of users",
        rows=rows,
        notes=[
            "paper (Pi 3, Scala): "
            + ", ".join(f"{k}: {v}s" for k, v in PAPER_TIMES_S.items()),
            "paper shape: ~2x time per 2x users; measured doubling ratios: "
            + ", ".join(f"{r:.2f}" for r in ratios),
            f"workers: {workers}, mode: {mode}"
            + (f", tier: {tier}" if tier else "")
            + (", mmap" if mmap else ""),
        ],
        meta={
            "workers": workers,
            "workload": scale.workload(tier),
            "mode": mode,
            "tier": tier,
            "mmap": mmap if tier is not None else None,
            "stage_seconds": {str(t.size): t.seconds for t in timings},
            "pool_seconds": pool_seconds,
            "digest": digest,
            "cache": cache.stats() if cache is not None and cache.enabled else None,
        },
    )
