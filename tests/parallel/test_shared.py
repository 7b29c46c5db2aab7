"""The path+offset payload transport: round trips, fallbacks, pool identity."""

import os
import pickle
from dataclasses import dataclass

import numpy as np
import pytest

from repro.data.cache import StageCache
from repro.data.columns import CheckInColumns
from repro.parallel import (
    SHARED_MIN_BYTES,
    MmapArrayRef,
    export_payload,
    import_payload,
    memmap_backing,
    parallel_map,
    parallel_map_with_stats,
)
from repro.parallel import pool as pool_module
from repro.parallel import shared as shared_module

BIG = np.arange(SHARED_MIN_BYTES, dtype=np.float64)  # well above the threshold
SMALL = np.arange(8, dtype=np.float64)


@dataclass(frozen=True)
class _Carrier:
    label: str
    values: np.ndarray


class TestExportImport:
    def test_round_trip_nested_payload(self):
        payload = {
            "big": BIG,
            "small": SMALL,
            "nested": ("x", [1, 2], {"inner": BIG * 2.0}),
            "scalar": 3.5,
        }
        exported, lease = export_payload(payload)
        try:
            assert isinstance(exported["big"], MmapArrayRef)
            assert exported["big"].offset == 0
            assert exported["small"] is SMALL  # below threshold: untouched
            assert lease.n_segments == 2
            assert lease.total_bytes == BIG.nbytes * 2
            imported = import_payload(exported)
            np.testing.assert_array_equal(imported["big"], BIG)
            np.testing.assert_array_equal(imported["nested"][2]["inner"], BIG * 2.0)
            assert imported["small"] is SMALL
            assert imported["scalar"] == 3.5
        finally:
            lease.release()

    def test_imported_arrays_are_read_only(self):
        exported, lease = export_payload({"big": BIG})
        try:
            imported = import_payload(exported)
            assert not imported["big"].flags.writeable
            with pytest.raises(ValueError):
                imported["big"][0] = -1.0
        finally:
            lease.release()

    def test_dataclass_round_trip(self):
        carrier = _Carrier(label="pop", values=BIG)
        exported, lease = export_payload(carrier)
        try:
            imported = import_payload(exported)
            assert isinstance(imported, _Carrier)
            assert imported.label == "pop"
            np.testing.assert_array_equal(imported.values, BIG)
        finally:
            lease.release()

    def test_validated_dataclass_round_trip(self):
        columns = CheckInColumns(
            xs=np.arange(SHARED_MIN_BYTES // 8, dtype=np.float64),
            ys=np.arange(SHARED_MIN_BYTES // 8, dtype=np.float64),
            timestamps=np.arange(SHARED_MIN_BYTES // 8, dtype=np.float64),
            offsets=[0, SHARED_MIN_BYTES // 8],
        )
        exported, lease = export_payload(columns)
        try:
            imported = import_payload(exported)
            assert isinstance(imported, CheckInColumns)
            np.testing.assert_array_equal(imported.xs, columns.xs)
            np.testing.assert_array_equal(imported.offsets, columns.offsets)
        finally:
            lease.release()

    def test_small_payload_passes_through_identically(self):
        payload = {"small": SMALL, "n": 7}
        exported, lease = export_payload(payload)
        assert exported is payload
        assert lease.n_segments == 0
        lease.release()

    def test_min_bytes_threshold(self):
        at = np.zeros(SHARED_MIN_BYTES, dtype=np.uint8)
        below = np.zeros(SHARED_MIN_BYTES - 1, dtype=np.uint8)
        exported, lease = export_payload({"at": at, "below": below})
        try:
            assert isinstance(exported["at"], MmapArrayRef)
            assert exported["below"] is below
        finally:
            lease.release()

    def test_strided_heap_array_round_trips(self):
        strided = np.arange(SHARED_MIN_BYTES // 4, dtype=np.float64)[::2]
        assert not strided.flags.c_contiguous
        exported, lease = export_payload({"s": strided})
        try:
            assert isinstance(exported["s"], MmapArrayRef)
            np.testing.assert_array_equal(import_payload(exported)["s"], strided)
        finally:
            lease.release()

    def test_heap_and_bundle_arrays_both_export_as_refs(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store("k", {"xs": BIG})
        mapped = cache.load("k")["xs"]
        exported, lease = export_payload({"heap": BIG * 3.0, "mapped": mapped})
        try:
            heap, file_ref = exported["heap"], exported["mapped"]
            assert isinstance(heap, MmapArrayRef)
            assert isinstance(file_ref, MmapArrayRef)
            # The heap array was copied once into a segment; the bundle
            # array ships as its own file.
            assert os.path.isfile(heap.path)
            assert file_ref.path == str(cache.path_for("k").parent / "xs.npy")
            assert (lease.n_segments, lease.total_bytes) == (1, BIG.nbytes)
            assert (lease.mmap_arrays, lease.mmap_bytes) == (1, BIG.nbytes)
            imported = import_payload(exported)
            np.testing.assert_array_equal(imported["heap"], BIG * 3.0)
            np.testing.assert_array_equal(imported["mapped"], BIG)
        finally:
            lease.release()
        assert not os.path.exists(heap.path)  # released segments unlink

    def test_large_payload_pickles_to_a_few_bytes(self):
        coords = np.arange(1_000_000, dtype=np.float64)  # 8 MB
        exported, lease = export_payload({"coords": coords, "label": "pool"})
        try:
            assert len(pickle.dumps(exported)) < 4096
        finally:
            lease.release()

    def test_no_tmpfs_path_falls_back_to_pickle(self, monkeypatch, tmp_path):
        monkeypatch.setattr(shared_module, "SHM_DIR", str(tmp_path / "absent"))
        payload = {"big": BIG}
        exported, lease = export_payload(payload)
        assert exported is payload
        assert lease.n_segments == 0

    def test_release_is_idempotent(self):
        _, lease = export_payload({"big": BIG})
        lease.release()
        lease.release()
        assert lease.n_segments == 0


def _sum_chunk(indices, rng, payload):
    coords = payload["coords"]
    return [float(coords[i % len(coords)].sum()) for i in indices]


class TestPoolTransport:
    PAYLOAD = {"coords": np.arange(SHARED_MIN_BYTES, dtype=np.float64).reshape(-1, 2)}

    def test_results_identical_pool_and_serial(self):
        serial = parallel_map(
            _sum_chunk, range(24), workers=1, seed=5, payload=self.PAYLOAD
        )
        pooled, stats = parallel_map_with_stats(
            _sum_chunk, range(24), workers=2, seed=5, payload=self.PAYLOAD
        )
        assert serial == pooled
        if stats.pool_used:
            assert stats.shared_arrays == 1
            assert stats.shared_bytes == self.PAYLOAD["coords"].nbytes

    def test_unlinked_segment_falls_back_to_serial(self, monkeypatch):
        """A segment gone before the workers attach must not crash."""
        expected = parallel_map(
            _sum_chunk, range(16), workers=1, seed=2, chunk_size=4,
            payload=self.PAYLOAD,
        )

        def export_then_unlink(payload):
            exported, lease = export_payload(payload)
            lease.release()
            return exported, lease

        monkeypatch.setattr(pool_module, "export_payload", export_then_unlink)
        results, stats = parallel_map_with_stats(
            _sum_chunk, range(16), workers=2, seed=2, chunk_size=4,
            payload=self.PAYLOAD,
        )
        assert results == expected
        assert not stats.pool_used


def _mmap_sum_chunk(indices, rng, payload):
    return [float(payload["xs"][i] + payload["offset"]) for i in indices]


class TestMmapTransport:
    """Memmap-backed arrays ship by path+offset, not by copy."""

    def _mmap_payload(self, tmp_path, n=1 << 16):
        cache = StageCache(tmp_path)
        cache.store("k", {"xs": np.arange(n, dtype=np.float64)})
        return cache.load("k")

    def test_export_returns_mmap_ref_without_shm(self, tmp_path):
        loaded = self._mmap_payload(tmp_path)
        exported, lease = export_payload({"xs": loaded["xs"]})
        try:
            ref = exported["xs"]
            assert isinstance(ref, MmapArrayRef)
            assert lease.n_segments == 0  # nothing copied into shm
            assert lease.mmap_arrays == 1
            assert lease.mmap_bytes == loaded["xs"].nbytes
            imported = import_payload(exported)
            assert type(imported["xs"]) is np.ndarray
            assert memmap_backing(imported["xs"]) is not None
            assert not imported["xs"].flags.writeable
            np.testing.assert_array_equal(imported["xs"], loaded["xs"])
        finally:
            lease.release()

    def test_view_slice_round_trips_with_byte_offset(self, tmp_path):
        loaded = self._mmap_payload(tmp_path)
        view = loaded["xs"][1024:60000]  # stays above SHARED_MIN_BYTES
        exported, lease = export_payload({"xs": view})
        try:
            assert isinstance(exported["xs"], MmapArrayRef)
            assert exported["xs"].offset > 0
            np.testing.assert_array_equal(import_payload(exported)["xs"], view)
        finally:
            lease.release()

    def test_small_mmap_array_ships_by_pickle(self, tmp_path):
        xs = np.lib.format.open_memmap(
            str(tmp_path / "xs.npy"), mode="w+", dtype=np.float64, shape=(8,)
        )
        exported, lease = export_payload({"xs": xs})
        try:
            # Below SHARED_MIN_BYTES a copy is cheaper than a remap.
            assert isinstance(exported["xs"], np.ndarray)
        finally:
            lease.release()

    def test_canonicalised_columns_still_detected(self, tmp_path):
        """ascontiguousarray strips the memmap subclass but keeps the base."""
        loaded = self._mmap_payload(tmp_path)
        canonical = np.ascontiguousarray(loaded["xs"])
        assert type(canonical) is np.ndarray
        assert memmap_backing(canonical) is not None
        exported, lease = export_payload({"xs": canonical})
        try:
            assert isinstance(exported["xs"], MmapArrayRef)
        finally:
            lease.release()

    def test_pool_results_identical_to_serial(self, tmp_path):
        loaded = self._mmap_payload(tmp_path, n=1 << 16)
        payload = {"xs": loaded["xs"], "offset": 0.5}
        serial = parallel_map(
            _mmap_sum_chunk, range(64), workers=1, seed=1, chunk_size=16, payload=payload
        )
        pooled, stats = parallel_map_with_stats(
            _mmap_sum_chunk, range(64), workers=2, seed=1, chunk_size=16, payload=payload
        )
        assert pooled == serial
        if stats.pool_used:
            assert stats.mmap_arrays == 1
            assert stats.shared_arrays == 0

    def test_vanished_backing_file_falls_back_to_serial(self, tmp_path):
        """Deleting the bundle before the workers attach must not crash."""
        loaded = self._mmap_payload(tmp_path)
        payload = {"xs": np.ascontiguousarray(loaded["xs"]), "offset": 0.0}
        expected = parallel_map(
            _mmap_sum_chunk, range(16), workers=1, seed=2, chunk_size=4, payload=payload
        )
        import shutil

        shutil.rmtree(tmp_path / "k")
        results = parallel_map(
            _mmap_sum_chunk, range(16), workers=2, seed=2, chunk_size=4, payload=payload
        )
        assert results == expected
