"""Deterministic process-pool fan-out for embarrassingly parallel sweeps.

Every experiment driver in this reproduction evaluates independent work
units — users under attack, Monte-Carlo parameter combinations, per-user
edge workloads.  :func:`parallel_map` is the shared backbone that fans
those units out over a process pool while keeping the results **bit
identical** for any worker count:

* items are split into chunks whose boundaries depend only on the item
  count and ``chunk_size`` — never on the worker count;
* each chunk gets its own :class:`numpy.random.SeedSequence` child,
  spawned in chunk order from the root seed, so the randomness a chunk
  consumes is a pure function of ``(seed, chunk index)``;
* results are reassembled in chunk order.

Consequently ``workers=1`` and ``workers=8`` walk exactly the same RNG
streams and produce exactly the same output list, which is what makes
parallel runs of the paper's figures reproducible and testable.

Heavy shared inputs (a user population, a trace pool) should go through
``payload=``: the payload is shipped to each worker **once** via the pool
initializer instead of being re-pickled into every chunk task.  Large
read-only arrays inside the payload travel as path+offset refs (see
:mod:`repro.parallel.shared`): workers map the parent's file-backed
columns, or a one-time shared-memory copy of its heap arrays, instead of
receiving pickled copies.

When ``workers <= 1``, the pool cannot be created (sandboxes without
fork/semaphores), or there is only one chunk, the same chunk schedule
runs serially in-process — same chunks, same seeds, same results.
"""

from __future__ import annotations

import ctypes
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.timing import ChunkTiming, Stopwatch, summarize_chunks
from repro.obs.trace import ChunkObservations
from repro.obs.trace import absorb as _obs_absorb
from repro.obs.trace import collect as _obs_collect
from repro.obs.rss import record_peak_rss as _record_peak_rss
from repro.obs.trace import enabled as _obs_enabled
from repro.obs.trace import get_registry as _obs_registry
from repro.parallel.shared import (
    count_payload_arrays,
    export_payload,
    import_payload,
)

__all__ = [
    "parallel_map",
    "parallel_map_with_stats",
    "ParallelStats",
    "resolve_workers",
    "chunk_bounds",
]

#: Default number of chunks to aim for.  Fixed (rather than derived from
#: the worker count) so chunk boundaries — and therefore the per-chunk
#: RNG streams — are identical no matter how many workers execute them.
DEFAULT_TARGET_CHUNKS = 32

#: Payload slot filled in each worker process by the pool initializer.
_WORKER_PAYLOAD: Any = None

#: glibc ``mallopt`` parameters and the values pool workers pin them to:
#: glibc's own 64-bit ceiling for the mmap threshold, and twice that for
#: the trim threshold (the ratio its dynamic rule keeps).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_WORKER_MMAP_THRESHOLD = 32 << 20


@dataclass
class ParallelStats:
    """Execution statistics of one :func:`parallel_map` call."""

    workers: int = 1
    pool_used: bool = False
    total_seconds: float = 0.0
    shared_arrays: int = 0
    shared_bytes: int = 0
    mmap_arrays: int = 0
    mmap_bytes: int = 0
    chunk_timings: List[ChunkTiming] = field(default_factory=list)

    def summary(self) -> Dict[str, Any]:
        """Flat dict for report notes and the benchmark JSON archives."""
        chunk_summary = summarize_chunks(self.chunk_timings)
        # The wall clock is authoritative; the chunk-sum lands under its
        # own key (they differ once chunks overlap in a pool).
        chunk_summary["chunk_seconds_sum"] = chunk_summary.pop("total_seconds")
        return {
            "workers": self.workers,
            "pool_used": self.pool_used,
            "total_seconds": self.total_seconds,
            "shared_arrays": self.shared_arrays,
            "shared_bytes": self.shared_bytes,
            "mmap_arrays": self.mmap_arrays,
            "mmap_bytes": self.mmap_bytes,
            **chunk_summary,
        }


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``--workers`` value: ``None``/``0`` means all *usable* cores.

    Usable means the scheduling affinity mask (what a CPU-quota'd CI
    container actually grants), not the host's physical core count.
    """
    if workers is None or workers == 0:
        try:
            return len(os.sched_getaffinity(0)) or 1
        except (AttributeError, OSError):  # non-Linux platforms
            return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def chunk_bounds(n_items: int, chunk_size: Optional[int]) -> List[Tuple[int, int]]:
    """Deterministic ``[start, end)`` chunk boundaries over ``n_items``.

    ``chunk_size=None`` targets :data:`DEFAULT_TARGET_CHUNKS` chunks.  The
    boundaries are a pure function of ``(n_items, chunk_size)`` — this is
    the invariant the bit-identical-results guarantee rests on.
    """
    if n_items == 0:
        return []
    if chunk_size is None:
        chunk_size = max(1, math.ceil(n_items / DEFAULT_TARGET_CHUNKS))
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [(s, min(s + chunk_size, n_items)) for s in range(0, n_items, chunk_size)]


def _keep_temporaries_on_heap() -> None:
    """Serve large chunk temporaries from the heap, not from fresh maps.

    glibc gives every allocation above its mmap threshold its own
    mapping, unmapped on free, so each of its pages faults in zero-filled
    on first touch.  The threshold starts at 128 KiB and rises only after
    the process frees a larger mapped block.  Kernel chunks allocate and
    free such temporaries every chunk, so a worker forked from a parent
    that never freed a large block (one that maps its columns from cache
    bundles) faulted in every page of every temporary: six times the
    page faults of a worker forked from a parent that had, and about
    10 % slower per chunk.  Pinning the threshold makes that independent
    of what the parent happened to allocate.  A no-op where the C library
    has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # pragma: no cover - not glibc
        return
    mallopt(_M_MMAP_THRESHOLD, _WORKER_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _WORKER_MMAP_THRESHOLD)


def _init_worker(payload: Any) -> None:
    """Pool initializer: tune the allocator and stash the shared payload.

    ``import_payload`` maps every path+offset ref the parent's export
    produced into a read-only array view; payloads without refs pass
    through unchanged.
    """
    global _WORKER_PAYLOAD
    _keep_temporaries_on_heap()
    _WORKER_PAYLOAD = import_payload(payload)


def _run_chunk(
    fn: Callable[..., List[Any]],
    chunk: List[Any],
    index: int,
    seed_seq: Optional[np.random.SeedSequence],
    with_payload: bool,
    payload: Any,
    collect_obs: bool = False,
) -> Tuple[int, List[Any], float, Optional[ChunkObservations]]:
    """Execute one chunk with its derived RNG.

    Returns ``(index, results, secs, observations)``; ``observations`` is
    the chunk's captured spans + metrics snapshot when ``collect_obs`` is
    set (the parent absorbs them in chunk order), else None.
    """
    rng = np.random.default_rng(seed_seq)
    if with_payload and payload is None:
        payload = _WORKER_PAYLOAD
    observations: Optional[ChunkObservations] = None
    start = time.perf_counter()
    if collect_obs:
        # Capture into a fresh buffer/registry in the worker *and* on the
        # serial path, so the per-chunk observations — and therefore the
        # parent's chunk-ordered merge — are identical either way.
        with _obs_collect() as observations:
            out = fn(chunk, rng, payload) if with_payload else fn(chunk, rng)
            # Peak RSS rides the chunk snapshot and max-merges in the
            # parent: the gauge ends up as the largest peak any process
            # in the fan-out reached.
            _record_peak_rss()
    elif with_payload:
        out = fn(chunk, rng, payload)
    else:
        out = fn(chunk, rng)
    elapsed = time.perf_counter() - start
    if not isinstance(out, list):
        out = list(out)
    if len(out) != len(chunk):
        raise ValueError(
            f"chunk function returned {len(out)} results for {len(chunk)} items"
        )
    return index, out, elapsed, observations


def parallel_map_with_stats(
    fn: Callable[..., List[Any]],
    items: Sequence[Any],
    *,
    workers: Optional[int] = None,
    seed: Optional[int] = None,
    chunk_size: Optional[int] = None,
    payload: Any = None,
) -> Tuple[List[Any], ParallelStats]:
    """:func:`parallel_map` plus the per-chunk :class:`ParallelStats`.

    Args:
        fn: chunk function ``fn(chunk, rng)`` — or ``fn(chunk, rng,
            payload)`` when ``payload`` is given — returning one result per
            chunk item.  Must be picklable (module-level) for ``workers > 1``.
        items: the independent work units.
        workers: process count; ``None``/``0`` uses every core, ``<= 1``
            runs serially (same chunks, same seeds).
        seed: root seed for the per-chunk ``SeedSequence.spawn`` chain;
            ``None`` gives fresh OS entropy per chunk (non-reproducible).
        chunk_size: items per chunk; default targets
            :data:`DEFAULT_TARGET_CHUNKS` chunks independent of ``workers``.
        payload: heavy shared state delivered to workers once via the pool
            initializer rather than per chunk; its large arrays arrive as
            read-only maps (same values as the serial path).
    """
    items = list(items)
    workers = resolve_workers(workers)
    stats = ParallelStats(workers=workers)
    if not items:
        return [], stats

    bounds = chunk_bounds(len(items), chunk_size)
    chunks = [items[s:e] for s, e in bounds]
    if seed is None:
        seqs: List[Optional[np.random.SeedSequence]] = [None] * len(chunks)
    else:
        seqs = list(np.random.SeedSequence(seed).spawn(len(chunks)))
    with_payload = payload is not None

    collect_obs = _obs_enabled()
    observations: List[Optional[ChunkObservations]] = [None] * len(chunks)
    with Stopwatch() as sw:
        results = _execute(
            fn, chunks, seqs, workers, with_payload, payload, stats,
            collect_obs, observations,
        )
    stats.total_seconds = sw.elapsed

    if collect_obs:
        # Chunk-index order: the merged registry is a pure function of the
        # chunk schedule, never of which worker ran which chunk.
        for obs_chunk in observations:
            _obs_absorb(obs_chunk)
        registry = _obs_registry()
        registry.counter("parallel.chunks").inc(len(chunks))
        registry.counter("parallel.items").inc(len(items))
        for timing in sorted(stats.chunk_timings, key=lambda c: c.index):
            registry.histogram("parallel.chunk_seconds").observe(timing.seconds)
        # Parent-side reading: RUSAGE_CHILDREN covers the pool workers
        # (reaped when the executor exited above), so after the max-merge
        # the gauge bounds every process this call touched.
        _record_peak_rss(include_children=True)

    flat: List[Any] = []
    for chunk_results in results:
        flat.extend(chunk_results)
    return flat, stats


def parallel_map(
    fn: Callable[..., List[Any]],
    items: Sequence[Any],
    *,
    workers: Optional[int] = None,
    seed: Optional[int] = None,
    chunk_size: Optional[int] = None,
    payload: Any = None,
) -> List[Any]:
    """Map ``fn`` over ``items`` in deterministic chunks, possibly in parallel.

    See :func:`parallel_map_with_stats` for the argument contract; this
    variant discards the timing stats.
    """
    results, _ = parallel_map_with_stats(
        fn,
        items,
        workers=workers,
        seed=seed,
        chunk_size=chunk_size,
        payload=payload,
    )
    return results


def _execute(
    fn: Callable[..., List[Any]],
    chunks: List[List[Any]],
    seqs: List[Optional[np.random.SeedSequence]],
    workers: int,
    with_payload: bool,
    payload: Any,
    stats: ParallelStats,
    collect_obs: bool,
    observations: List[Optional[ChunkObservations]],
) -> List[List[Any]]:
    """Run every chunk, preferring the pool, falling back to serial."""
    if workers > 1 and len(chunks) > 1:
        try:
            return _execute_pool(
                fn, chunks, seqs, workers, with_payload, payload, stats,
                collect_obs, observations,
            )
        except (
            OSError,
            PermissionError,
            NotImplementedError,
            ImportError,
            BrokenProcessPool,
        ):
            # No fork/semaphores in this environment, or a worker died in
            # its initializer (e.g. an exported ref whose backing file or
            # segment vanished before attach): degrade gracefully — the
            # serial path below reuses the original, un-exported payload.
            stats.shared_arrays = 0
            stats.shared_bytes = 0
            stats.mmap_arrays = 0
            stats.mmap_bytes = 0
    return _execute_serial(
        fn, chunks, seqs, with_payload, payload, stats, collect_obs, observations
    )


def _execute_serial(
    fn: Callable[..., List[Any]],
    chunks: List[List[Any]],
    seqs: List[Optional[np.random.SeedSequence]],
    with_payload: bool,
    payload: Any,
    stats: ParallelStats,
    collect_obs: bool,
    observations: List[Optional[ChunkObservations]],
) -> List[List[Any]]:
    out: List[List[Any]] = []
    for index, (chunk, seq) in enumerate(zip(chunks, seqs)):
        _, results, elapsed, obs_chunk = _run_chunk(
            fn, chunk, index, seq, with_payload, payload, collect_obs
        )
        observations[index] = obs_chunk
        stats.chunk_timings.append(
            ChunkTiming(index=index, size=len(chunk), seconds=elapsed)
        )
        out.append(results)
    return out


def _execute_pool(
    fn: Callable[..., List[Any]],
    chunks: List[List[Any]],
    seqs: List[Optional[np.random.SeedSequence]],
    workers: int,
    with_payload: bool,
    payload: Any,
    stats: ParallelStats,
    collect_obs: bool,
    observations: List[Optional[ChunkObservations]],
) -> List[List[Any]]:
    max_workers = min(workers, len(chunks))
    lease = None
    if with_payload:
        payload_arrays, payload_bytes = count_payload_arrays(payload)
        # Large payload arrays export as path+offset refs (heap arrays
        # after one copy into a shared segment); only the tiny ref tree
        # is pickled into the pool initializer.
        payload, lease = export_payload(payload)
        stats.shared_arrays = lease.n_segments
        stats.shared_bytes = lease.total_bytes
        stats.mmap_arrays = lease.mmap_arrays
        stats.mmap_bytes = lease.mmap_bytes
        if _obs_enabled():
            # Transport accounting: shared segments hold ONE copy no
            # matter the worker count, file-backed refs hold ZERO copies
            # (the file is the copy); whatever stayed on the pickle path
            # is copied into every worker.
            registry = _obs_registry()
            registry.counter("parallel.transport.shm_arrays").inc(stats.shared_arrays)
            registry.counter("parallel.transport.shm_bytes").inc(stats.shared_bytes)
            registry.counter("parallel.transport.mmap_arrays").inc(stats.mmap_arrays)
            registry.counter("parallel.transport.mmap_bytes").inc(stats.mmap_bytes)
            registry.counter("parallel.transport.pickle_arrays").inc(
                (payload_arrays - stats.shared_arrays - stats.mmap_arrays) * max_workers
            )
            registry.counter("parallel.transport.pickle_bytes").inc(
                (payload_bytes - stats.shared_bytes - stats.mmap_bytes) * max_workers
            )
    ordered: List[Optional[List[Any]]] = [None] * len(chunks)
    try:
        with ProcessPoolExecutor(
            max_workers=max_workers, initializer=_init_worker, initargs=(payload,)
        ) as pool:
            futures = [
                # Chunk tasks carry payload=None: workers read the
                # initializer copy instead of re-pickling the payload per
                # chunk.
                pool.submit(
                    _run_chunk, fn, chunk, index, seq, with_payload, None,
                    collect_obs,
                )
                for index, (chunk, seq) in enumerate(zip(chunks, seqs))
            ]
            for future in futures:
                index, results, elapsed, obs_chunk = future.result()
                ordered[index] = results
                observations[index] = obs_chunk
                stats.chunk_timings.append(
                    ChunkTiming(index=index, size=len(chunks[index]), seconds=elapsed)
                )
    finally:
        if lease is not None:
            lease.release()
    stats.pool_used = True
    stats.chunk_timings.sort(key=lambda c: c.index)
    return [r for r in ordered if r is not None]
