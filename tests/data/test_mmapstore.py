"""The ``.npy`` bundle format behind StageCache: round-trips, map/load split,
corruption, atomic writers, page release."""

import errno
import json

import numpy as np
import pytest

from repro.data import cache as cache_module
from repro.data.cache import StageCache, stage_key
from repro.data.mmapstore import MANIFEST_NAME, BundleWriter, release_pages
from repro.parallel import SHARED_MIN_BYTES, memmap_backing

#: Elements of a float64 array exactly at the map threshold.
BIG_N = SHARED_MIN_BYTES // 8


def _arrays():
    return {
        "xs": np.arange(10, dtype=np.float64),
        "ys": np.linspace(-1.0, 1.0, 10),
        "offsets": np.asarray([0, 4, 10], dtype=np.int64),
    }


def _big_arrays():
    return {
        "xs": np.arange(BIG_N, dtype=np.float64),
        "ids": np.arange(BIG_N, dtype=np.int64)[::-1].copy(),
    }


def _bundle(cache, key):
    return cache.path_for(key).parent


class TestRoundTrip:
    def test_miss_then_hit(self, tmp_path):
        cache = StageCache(tmp_path)
        key = stage_key("s", {"a": 1}, "1")
        assert cache.load(key) is None
        cache.store(key, _arrays())
        loaded = cache.load(key)
        assert loaded is not None
        for name, expected in _arrays().items():
            np.testing.assert_array_equal(loaded[name], expected)
            assert loaded[name].dtype == expected.dtype

    def test_loaded_arrays_are_readonly_memmaps(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store("k", _big_arrays())
        loaded = cache.load("k")
        for name, arr in loaded.items():
            # A plain ndarray view whose base is the map: the memmap
            # subclass would run Python code on every slice.
            assert type(arr) is np.ndarray
            assert memmap_backing(arr) is not None
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 99
            np.testing.assert_array_equal(arr, _big_arrays()[name])

    def test_small_arrays_load_as_readonly_heap_arrays(self, tmp_path):
        """Tiny artifacts must not each pin a mapping and its descriptor."""
        cache = StageCache(tmp_path)
        many = {f"row{i}": np.full(4, float(i)) for i in range(64)}
        many["edge"] = np.zeros(BIG_N - 1, dtype=np.float64)  # one byte short
        cache.store("k", many)
        loaded = cache.load("k")
        for name, arr in loaded.items():
            assert type(arr) is np.ndarray
            assert memmap_backing(arr) is None
            assert not arr.flags.writeable
            np.testing.assert_array_equal(arr, many[name])

    def test_zero_size_array_round_trips(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store("k", {"empty": np.empty(0, dtype=np.float64)})
        loaded = cache.load("k")
        assert loaded["empty"].shape == (0,)
        assert loaded["empty"].dtype == np.float64

    def test_disabled_store_is_inert(self, tmp_path):
        cache = StageCache(tmp_path, enabled=False)
        cache.store("k", _arrays())
        assert cache.load("k") is None

    def test_clear_removes_bundles(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store("a", _arrays())
        cache.store("b", _big_arrays())
        assert cache.clear() == 2
        assert cache.load("a") is None
        assert list(tmp_path.iterdir()) == []

    def test_clear_leaves_what_the_cache_did_not_write(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store("a", _arrays())
        (tmp_path / "notes").mkdir()
        (tmp_path / "notes" / "keep.txt").write_text("x")
        (tmp_path / "loose.txt").write_text("y")
        crashed = tmp_path / ".b.abc123.tmp"
        crashed.mkdir()
        assert cache.clear() == 2
        assert (tmp_path / "notes" / "keep.txt").read_text() == "x"
        assert (tmp_path / "loose.txt").read_text() == "y"
        assert not crashed.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["loose.txt", "notes"]

    def test_path_for_exists_exactly_when_published(self, tmp_path):
        cache = StageCache(tmp_path)
        assert not cache.path_for("k").is_file()
        with cache.writer("k", {"xs": ((4,), "<f8")}):
            assert not cache.path_for("k").is_file()
        assert cache.path_for("k").is_file()
        assert cache.path_for("k").name == MANIFEST_NAME


class TestCorruption:
    def test_truncated_npy_is_a_miss(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store("k", _arrays())
        path = _bundle(cache, "k") / "xs.npy"
        path.write_bytes(path.read_bytes()[:-16])
        assert cache.load("k") is None
        # The broken bundle is swept; a re-store round-trips again.
        assert not _bundle(cache, "k").exists()
        cache.store("k", _arrays())
        assert cache.load("k") is not None

    def test_truncated_mapped_npy_is_a_miss(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store("k", _big_arrays())
        path = _bundle(cache, "k") / "ids.npy"
        path.write_bytes(path.read_bytes()[:-8])
        assert cache.load("k") is None
        assert not _bundle(cache, "k").exists()

    def test_empty_npy_is_a_miss(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store("k", _arrays())
        (_bundle(cache, "k") / "ys.npy").write_bytes(b"")
        assert cache.load("k") is None

    def test_missing_payload_file_is_a_miss(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store("k", _arrays())
        (_bundle(cache, "k") / "offsets.npy").unlink()
        assert cache.load("k") is None

    def test_missing_manifest_is_a_miss(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store("k", _arrays())
        cache.path_for("k").unlink()
        assert cache.load("k") is None

    def test_bundle_without_manifest_is_replaced_by_the_recompute(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store("k", _big_arrays())
        cache.path_for("k").unlink()
        assert cache.get_or_compute("k", _big_arrays)["ids"].shape
        assert cache.path_for("k").is_file()
        again = StageCache(tmp_path)
        assert again.load("k") is not None
        assert again.stats() == {"hits": 1, "misses": 0, "stores": 0}

    def test_commit_over_a_manifestless_directory_publishes(self, tmp_path):
        cache = StageCache(tmp_path)
        (tmp_path / "k").mkdir()
        (tmp_path / "k" / "xs.npy").write_bytes(b"stale")
        with cache.writer("k", {"xs": ((4,), "<f8")}) as writer:
            writer.arrays["xs"][...] = 1.0
        np.testing.assert_array_equal(cache.load("k")["xs"], np.ones(4))

    def test_manifest_dtype_mismatch_is_a_miss(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store("k", _arrays())
        manifest_path = cache.path_for("k")
        manifest = json.loads(manifest_path.read_text())
        manifest["arrays"]["xs"]["dtype"] = "<i8"
        manifest_path.write_text(json.dumps(manifest))
        assert cache.load("k") is None

    def test_garbage_manifest_is_a_miss(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store("k", _arrays())
        cache.path_for("k").write_text("{not json")
        assert cache.load("k") is None
        assert cache.stats() == {"hits": 0, "misses": 1, "stores": 1}

    def test_descriptor_exhaustion_keeps_the_bundle(self, tmp_path, monkeypatch):
        """Running out of file descriptors is not corruption."""
        cache = StageCache(tmp_path)
        cache.store("k", _big_arrays())

        def exhausted(bundle):
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(cache_module, "read_bundle", exhausted)
        with pytest.raises(OSError):
            cache.load("k")
        assert cache.path_for("k").is_file()


class TestBundleWriter:
    def test_commit_publishes_atomically(self, tmp_path):
        cache = StageCache(tmp_path)
        specs = {"xs": ((4,), "<f8")}
        with cache.writer("k", specs) as writer:
            assert cache.load("k") is None
            writer.arrays["xs"][:] = [1.0, 2.0, 3.0, 4.0]
        loaded = cache.load("k")
        np.testing.assert_array_equal(loaded["xs"], [1.0, 2.0, 3.0, 4.0])
        assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1}

    def test_abort_on_error_leaves_no_bundle(self, tmp_path):
        cache = StageCache(tmp_path)
        with pytest.raises(RuntimeError):
            with cache.writer("k", {"xs": ((4,), "<f8")}):
                raise RuntimeError("boom")
        assert cache.load("k") is None
        assert not any(cache.directory.iterdir())
        assert cache.stats()["stores"] == 0

    def test_concurrent_commit_keeps_a_valid_bundle(self, tmp_path):
        cache = StageCache(tmp_path)
        first = BundleWriter(tmp_path / "k", {"xs": ((2,), "<f8")})
        second = BundleWriter(tmp_path / "k", {"xs": ((2,), "<f8")})
        first.arrays["xs"][:] = [1.0, 1.0]
        second.arrays["xs"][:] = [2.0, 2.0]
        first.commit()
        second.commit()
        loaded = cache.load("k")
        assert loaded["xs"][0] in (1.0, 2.0)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k"]


class TestReleasePages:
    def test_accepts_memmaps_views_and_heap_arrays(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store("k", _big_arrays())
        loaded = cache.load("k")
        # Memmap, a view of one, and a heap array: all must be accepted.
        release_pages(loaded["xs"], loaded["xs"][2:5], np.arange(3.0))
        np.testing.assert_array_equal(loaded["xs"], _big_arrays()["xs"])
