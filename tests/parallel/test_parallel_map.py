"""Unit tests for the deterministic process-pool fan-out."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.parallel import (
    ParallelStats,
    chunk_bounds,
    parallel_map,
    parallel_map_with_stats,
    resolve_workers,
)
from repro.parallel.pool import DEFAULT_TARGET_CHUNKS


def _double(chunk, rng):
    return [2 * x for x in chunk]


def _draw(chunk, rng):
    """One RNG draw per item — the determinism stress case."""
    return [float(rng.normal()) for _ in chunk]


def _add_payload(chunk, rng, payload):
    return [x + payload for x in chunk]


def _row_sums(chunk, rng, payload):
    """Touch the shipped array, so the worker really maps it."""
    coords = payload["coords"]
    return [float(coords[i % len(coords)].sum()) for i in chunk]


def _wrong_length(chunk, rng):
    return [0]


def _temporary_churn_faults(chunk, rng):
    """Page faults taken by allocating, touching and freeing growing buffers.

    Sizes grow (192 KiB to 3 MiB) as chunk temporaries do, so glibc's
    own threshold, which only rises to the size of the last block freed,
    never catches up.
    """
    import resource

    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for k in range(1, 17):
        np.ones(k * (3 << 13))
    return [resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before] * len(chunk)


_CHURN_SCRIPT = """
from repro.parallel import parallel_map_with_stats
from tests.parallel.test_parallel_map import _temporary_churn_faults
faults, stats = parallel_map_with_stats(
    _temporary_churn_faults, range(2), workers=2, chunk_size=1
)
print(int(stats.pool_used), max(faults))
"""


class TestChunkBounds:
    def test_covers_all_items_exactly_once(self):
        for n in (1, 2, 7, 31, 32, 33, 1000):
            bounds = chunk_bounds(n, None)
            covered = [i for s, e in bounds for i in range(s, e)]
            assert covered == list(range(n))

    def test_explicit_chunk_size(self):
        assert chunk_bounds(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_empty(self):
        assert chunk_bounds(0, None) == []

    def test_default_targets_fixed_chunk_count(self):
        bounds = chunk_bounds(10 * DEFAULT_TARGET_CHUNKS, None)
        assert len(bounds) == DEFAULT_TARGET_CHUNKS

    def test_independent_of_workers(self):
        """Boundaries are a pure function of (n_items, chunk_size)."""
        assert chunk_bounds(100, None) == chunk_bounds(100, None)

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            chunk_bounds(10, 0)


class TestResolveWorkers:
    def test_none_and_zero_mean_all_cores(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) == resolve_workers(None)

    def test_passthrough(self):
        assert resolve_workers(3) == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestParallelMap:
    def test_maps_in_order(self):
        assert parallel_map(_double, range(10), workers=1) == [
            2 * i for i in range(10)
        ]

    def test_empty_items(self):
        assert parallel_map(_double, [], workers=4) == []

    def test_payload_serial_and_pool(self):
        expected = [i + 100 for i in range(20)]
        serial = parallel_map(
            _add_payload, range(20), workers=1, payload=100, chunk_size=5
        )
        pooled = parallel_map(
            _add_payload, range(20), workers=2, payload=100, chunk_size=5
        )
        assert serial == expected
        assert pooled == expected

    def test_wrong_result_length_raises(self):
        with pytest.raises(ValueError):
            parallel_map(_wrong_length, range(8), workers=1, chunk_size=4)

    def test_seeded_runs_reproduce(self):
        a = parallel_map(_draw, range(16), workers=1, seed=42, chunk_size=4)
        b = parallel_map(_draw, range(16), workers=1, seed=42, chunk_size=4)
        assert a == b

    def test_different_seeds_differ(self):
        a = parallel_map(_draw, range(16), workers=1, seed=1, chunk_size=4)
        b = parallel_map(_draw, range(16), workers=1, seed=2, chunk_size=4)
        assert a != b


class TestWorkerCountInvariance:
    """The headline guarantee: results are bit-identical for any workers."""

    def test_serial_vs_pool_bit_identical(self):
        serial = parallel_map(_draw, range(64), workers=1, seed=7, chunk_size=8)
        pooled = parallel_map(_draw, range(64), workers=4, seed=7, chunk_size=8)
        assert serial == pooled  # exact float equality, not approx

    def test_two_pool_sizes_bit_identical(self):
        two = parallel_map(_draw, range(64), workers=2, seed=7, chunk_size=8)
        four = parallel_map(_draw, range(64), workers=4, seed=7, chunk_size=8)
        assert two == four


class TestStats:
    def test_serial_stats(self):
        results, stats = parallel_map_with_stats(
            _double, range(12), workers=1, chunk_size=4
        )
        assert len(results) == 12
        assert isinstance(stats, ParallelStats)
        assert stats.workers == 1
        assert not stats.pool_used
        assert [c.size for c in stats.chunk_timings] == [4, 4, 4]
        assert all(c.seconds >= 0.0 for c in stats.chunk_timings)
        assert stats.total_seconds >= 0.0

    def test_pool_stats(self):
        _, stats = parallel_map_with_stats(
            _double, range(12), workers=2, chunk_size=4
        )
        assert stats.pool_used
        assert [c.index for c in stats.chunk_timings] == [0, 1, 2]

    def test_summary_shape(self):
        _, stats = parallel_map_with_stats(
            _double, range(12), workers=1, chunk_size=4
        )
        summary = stats.summary()
        assert summary["workers"] == 1
        assert summary["chunks"] == 3
        assert summary["total_seconds"] >= 0.0
        assert summary["max_seconds"] >= 0.0

    def test_single_chunk_stays_serial(self):
        """One chunk cannot benefit from a pool — no fork overhead paid."""
        _, stats = parallel_map_with_stats(
            _double, range(4), workers=4, chunk_size=100
        )
        assert not stats.pool_used

    def test_heap_array_ships_as_one_shared_copy(self):
        """A payload array above the ref threshold crosses to the pool once."""
        arr = np.arange(40_000 * 2, dtype=np.float64).reshape(-1, 2)
        assert arr.nbytes >= 256 * 1024
        payload = {"coords": arr}
        serial, _ = parallel_map_with_stats(
            _row_sums, range(8), workers=1, seed=0, payload=payload, chunk_size=2
        )
        pooled, stats = parallel_map_with_stats(
            _row_sums, range(8), workers=2, seed=0, payload=payload, chunk_size=2
        )
        assert stats.pool_used
        assert stats.shared_arrays == 1
        assert stats.shared_bytes == arr.nbytes
        assert pooled == serial


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="worker allocator tuning is glibc's mallopt"
)
def test_pool_workers_reuse_freed_temporaries():
    """Chunk temporaries come back from the heap, not as fresh zeroed maps.

    Runs in a fresh interpreter so the worker inherits no allocator
    state from this test process.  Unpinned, every buffer of the loop
    faults in all its pages again (about 6,300 faults); reused, the loop
    faults in about the largest buffer once (768 pages).
    """
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    out = subprocess.run(
        [sys.executable, "-c", _CHURN_SCRIPT],
        env=env, cwd=root, capture_output=True, text=True, timeout=120, check=True,
    ).stdout.split()
    pool_used, faults = int(out[0]), int(out[1])
    if not pool_used:
        pytest.skip("no process pool in this environment")
    assert faults < 2048


class TestFig6Determinism:
    """End-to-end: the fig6 attack rows match for any worker count."""

    def test_fig6_rows_identical_across_worker_counts(self):
        from repro.experiments.config import ExperimentScale
        from repro.experiments.fig6_attack import run

        tiny = ExperimentScale(
            name="tiny", trials=10, n_users=5, mc_samples=32, seed=99
        )
        serial = run(tiny, workers=1)
        pooled = run(tiny, workers=4)
        assert serial.rows == pooled.rows
