"""Deterministic parallel execution backbone for the experiment drivers.

``parallel_map`` fans independent work units out over a process pool with
chunk-order ``SeedSequence.spawn`` RNG derivation, so the same seed gives
bit-identical results for any worker count.  Large read-only payload
arrays travel as path+offset refs that workers map (see
:mod:`repro.parallel.shared`).  See :mod:`repro.parallel.pool`.
"""

from repro.parallel.pool import (
    DEFAULT_TARGET_CHUNKS,
    ParallelStats,
    chunk_bounds,
    parallel_map,
    parallel_map_with_stats,
    resolve_workers,
)
from repro.parallel.shared import (
    SHARED_MIN_BYTES,
    MmapArrayRef,
    ShmLease,
    export_payload,
    import_payload,
    memmap_backing,
)

__all__ = [
    "parallel_map",
    "parallel_map_with_stats",
    "ParallelStats",
    "resolve_workers",
    "chunk_bounds",
    "DEFAULT_TARGET_CHUNKS",
    "SHARED_MIN_BYTES",
    "MmapArrayRef",
    "ShmLease",
    "export_payload",
    "import_payload",
    "memmap_backing",
]
