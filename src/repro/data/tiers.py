"""Named dataset tiers: small .. metro-1M populations as CSR shards.

A tier names a fixed :class:`~repro.datagen.population.PopulationConfig`
so benches and CI refer to "the 10k-user city tier" instead of an ad-hoc
parameter soup.  Tier populations are generated **shard-streamed**: users
come from :func:`~repro.datagen.population.iter_population_spawned` (each
user a pure function of ``(config, user id)``), so fixed-size shards of
the population can be generated in parallel, cached individually in the
content-addressed :class:`~repro.data.cache.StageCache` under the
``tier-shard`` stage, and concatenated back — large populations never
regenerate, and a partially warm cache only computes the missing shards.

Per-user check-in volume shrinks as the tier grows (a 100k-user bench
stresses the *population* axis, not per-user trace length), keeping the
metro-100k tier around 5-6M check-ins (~130 MB of columns) and the
metro-1M tier around 26M check-ins (~650 MB).

Two serving paths share the shard discipline:

* the default in-memory path concatenates shard arrays on the heap —
  right up to metro-100k;
* ``tier_columns(..., mmap=True)`` builds the tier **out of core**:
  generation proceeds in bounded waves so only a few shards are ever
  resident, the combined columns are streamed shard-by-shard into one
  preallocated cache bundle, and the returned
  :class:`~repro.data.columns.PopulationColumns` wraps read-only
  ``np.memmap`` views.  Values are bit-identical either way — only the
  residency story differs — which is what lets the candidate digests pin
  mmap-vs-heap equivalence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.cache import StageCache, stage_key
from repro.data.columns import PopulationColumns
from repro.data.mmapstore import release_pages
from repro.datagen.population import PopulationConfig, iter_population_spawned

__all__ = [
    "DatasetTier",
    "TIERS",
    "TIER_SHARD_USERS",
    "TIER_STAGE_VERSION",
    "MMAP_WAVE_SHARDS",
    "tier_config",
    "tier_columns",
]

#: Bump when spawned-stream population generation changes output.
TIER_STAGE_VERSION = "1"

#: Users per generation/cache shard.  Part of the cache key via the shard
#: ranges, so changing it invalidates tier entries (they re-shard).
TIER_SHARD_USERS = 2_500


@dataclass(frozen=True)
class DatasetTier:
    """A named population scale with its trace-volume calibration."""

    name: str
    n_users: int
    count_log_mean: float
    count_log_sigma: float
    max_checkins: int
    seed: int = 20220522

    def config(self) -> PopulationConfig:
        """The tier's fully specified population config."""
        return PopulationConfig(
            n_users=self.n_users,
            seed=self.seed,
            count_log_mean=self.count_log_mean,
            count_log_sigma=self.count_log_sigma,
            max_checkins=self.max_checkins,
        )


#: The named tiers the benches and docs refer to.
TIERS: Dict[str, DatasetTier] = {
    tier.name: tier
    for tier in (
        # Laptop tier: the repo-default population calibration.
        DatasetTier(
            name="small", n_users=2_000,
            count_log_mean=math.log(450.0), count_log_sigma=1.15,
            max_checkins=11_435,
        ),
        # CI mid-tier: 10k users, ~130 check-ins each.
        DatasetTier(
            name="city", n_users=10_000,
            count_log_mean=math.log(80.0), count_log_sigma=1.0,
            max_checkins=2_000,
        ),
        # The bench-trajectory tier: 100k users, ~55 check-ins each.
        DatasetTier(
            name="metro-100k", n_users=100_000,
            count_log_mean=math.log(40.0), count_log_sigma=0.8,
            max_checkins=400,
        ),
        # The out-of-core tier: 1M users, ~26 check-ins each (~650 MB of
        # columns) — sized for the mmap path; the in-memory path still
        # works but holds the whole population on the heap.
        DatasetTier(
            name="metro-1M", n_users=1_000_000,
            count_log_mean=math.log(18.0), count_log_sigma=0.6,
            max_checkins=150,
        ),
    )
}

#: Shards generated per wave on the mmap path — bounds how many freshly
#: generated shards are heap-resident at once, independent of tier size.
MMAP_WAVE_SHARDS = 16


def tier_config(name: str) -> PopulationConfig:
    """Resolve a tier name to its population config."""
    try:
        return TIERS[name].config()
    except KeyError:
        raise ValueError(
            f"unknown tier {name!r}; available: {sorted(TIERS)}"
        ) from None


def _shard_ranges(n_users: int) -> List[Tuple[int, int]]:
    return [
        (s, min(s + TIER_SHARD_USERS, n_users))
        for s in range(0, n_users, TIER_SHARD_USERS)
    ]


def _shard_key(config: PopulationConfig, start: int, stop: int) -> str:
    return stage_key(
        "tier-shard",
        {"config": config, "start": start, "stop": stop},
        TIER_STAGE_VERSION,
    )


def _generate_shards(
    chunk: List[Tuple[int, int]],
    rng: np.random.Generator,
    payload: Dict[str, PopulationConfig],
) -> List[Dict[str, np.ndarray]]:
    """parallel_map chunk fn: generate the given ``(start, stop)`` shards.

    The chunk rng is unused on purpose — every user draws from its own
    spawned stream, so shard content is independent of the chunk schedule.
    """
    config: PopulationConfig = payload["config"]
    return [
        PopulationColumns.from_users(
            iter_population_spawned(config, start, stop)
        ).arrays()
        for start, stop in chunk
    ]


def _combined_key(config: PopulationConfig) -> str:
    return stage_key(
        "tier-columns",
        {"config": config, "shard_users": TIER_SHARD_USERS},
        TIER_STAGE_VERSION,
    )


def _tier_columns_mmap(
    config: PopulationConfig, cache: StageCache, workers: Optional[int]
) -> PopulationColumns:
    """Build (or reopen) the tier as one memmap-backed ``.npy`` bundle.

    The combined bundle is content-addressed under the ``tier-columns``
    stage; a hit reopens it with zero generation work and near-zero heap.
    On a miss, shard bundles are ensured first — reusing shards a
    previous in-memory run cached, generating the rest in waves of
    :data:`MMAP_WAVE_SHARDS` so heap residency is bounded by the wave,
    not the tier — then streamed into one preallocated bundle with
    offsets rebased shard by shard.  Page-release advice after each shard
    keeps the build's peak RSS flat at any tier size.
    """
    from repro.parallel.pool import parallel_map

    key = _combined_key(config)
    combined = cache.load(key)
    if combined is not None:
        return PopulationColumns.from_arrays(combined)

    ranges = _shard_ranges(config.n_users)
    keys = [_shard_key(config, start, stop) for start, stop in ranges]
    shard_arrays: List[Optional[Dict[str, np.ndarray]]] = [
        cache.load(k) for k in keys
    ]

    missing = [i for i, a in enumerate(shard_arrays) if a is None]
    for wave_start in range(0, len(missing), MMAP_WAVE_SHARDS):
        wave = missing[wave_start:wave_start + MMAP_WAVE_SHARDS]
        generated = parallel_map(
            _generate_shards,
            [ranges[i] for i in wave],
            workers=workers,
            chunk_size=1,
            payload={"config": config},
        )
        for i, arrays in zip(wave, generated):
            # Same trust boundary as the in-memory path's shard store.
            # reprolint: disable=PRIV003
            cache.store(keys[i], arrays)
            shard_arrays[i] = cache.load(keys[i])

    shards = [a for a in shard_arrays if a is not None]
    n_checkins = sum(int(a["xs"].shape[0]) for a in shards)
    n_tops = sum(int(a["top_xs"].shape[0]) for a in shards)
    n_rows = config.n_users + 1
    specs: Dict[str, Tuple[Tuple[int, ...], str]] = {
        "xs": ((n_checkins,), "<f8"),
        "ys": ((n_checkins,), "<f8"),
        "timestamps": ((n_checkins,), "<f8"),
        "offsets": ((n_rows,), "<i8"),
        "top_xs": ((n_tops,), "<f8"),
        "top_ys": ((n_tops,), "<f8"),
        "top_offsets": ((n_rows,), "<i8"),
    }
    with cache.writer(key, specs) as writer:
        out = writer.arrays
        out["offsets"][0] = 0
        out["top_offsets"][0] = 0
        row = top = user = 0
        for j, a in enumerate(shards):
            k = int(a["xs"].shape[0])
            t = int(a["top_xs"].shape[0])
            u = int(a["offsets"].shape[0]) - 1
            out["xs"][row:row + k] = a["xs"]
            out["ys"][row:row + k] = a["ys"]
            out["timestamps"][row:row + k] = a["timestamps"]
            out["top_xs"][top:top + t] = a["top_xs"]
            out["top_ys"][top:top + t] = a["top_ys"]
            out["offsets"][user + 1:user + u + 1] = a["offsets"][1:] + row
            out["top_offsets"][user + 1:user + u + 1] = a["top_offsets"][1:] + top
            row += k
            top += t
            user += u
            release_pages(*a.values())
            if (j + 1) % MMAP_WAVE_SHARDS == 0:
                # Push dirty pages to disk and surrender them so the
                # writer's residency stays one wave, not the whole tier.
                for arr in out.values():
                    if isinstance(arr, np.memmap):
                        arr.flush()
                release_pages(*out.values())

    combined = cache.load(key)
    if combined is None:
        raise RuntimeError(
            f"mmap tier bundle vanished immediately after build: {cache.path_for(key)}"
        )
    return PopulationColumns.from_arrays(combined)


def tier_columns(
    name: str,
    cache: Optional[StageCache] = None,
    workers: Optional[int] = 1,
    mmap: bool = False,
) -> PopulationColumns:
    """The tier's full population, shard-cached and shard-parallel.

    Shards present in ``cache`` load directly; missing shards are
    generated (fanned out over ``workers`` via ``parallel_map``) and
    stored, then everything concatenates in user order.  The result is
    bit-identical regardless of cache state or worker count.

    With ``mmap=True`` the tier is served out of core from one combined
    cache bundle: the returned columns wrap read-only memmaps and
    downstream fan-out ships them by path+offset instead of copying.
    Values are bit-identical to the heap path.  An mmap request without a disk-backed cache has
    nowhere to put the bundle and falls back to the heap path.
    """
    from repro.parallel.pool import parallel_map

    config = tier_config(name)
    if mmap and cache is not None and cache.enabled:
        return _tier_columns_mmap(config, cache, workers)
    ranges = _shard_ranges(config.n_users)
    shards: List[Optional[PopulationColumns]] = [None] * len(ranges)
    missing: List[Tuple[int, Tuple[int, int]]] = []
    for i, (start, stop) in enumerate(ranges):
        if cache is not None:
            arrays = cache.load(_shard_key(config, start, stop))
            if arrays is not None:
                # Copy off the maps now: the result is concatenated on the
                # heap anyway, and a metro-1M tier has 400 shards whose
                # live maps would each hold a file descriptor.
                shards[i] = PopulationColumns.from_arrays(
                    {name: np.array(arr) for name, arr in arrays.items()}
                )
                continue
        missing.append((i, (start, stop)))

    if missing:
        generated = parallel_map(
            _generate_shards,
            [rng_pair for _, rng_pair in missing],
            workers=workers,
            chunk_size=1,
            payload={"config": config},
        )
        for (i, (start, stop)), arrays in zip(missing, generated):
            if cache is not None:
                # Client-side population shards: inputs to the mechanisms,
                # cached inside the trust boundary (see population_columns).
                # reprolint: disable=PRIV003
                cache.store(_shard_key(config, start, stop), arrays)
            shards[i] = PopulationColumns.from_arrays(arrays)

    return PopulationColumns.concat([s for s in shards if s is not None])
