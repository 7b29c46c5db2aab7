"""Property tests: the out-of-core data plane is invisible to results.

Serving columns from memory-mapped ``.npy`` bundles must be a pure
residency change: every byte round-trips losslessly through the
:class:`~repro.data.cache.StageCache`, population kernels produce
bit-identical outputs whether their inputs live on the heap or in a map,
and a truncated shard file degrades to regeneration like any other
corrupt bundle.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.data import tiers
from repro.data.cache import StageCache
from repro.data.columns import PopulationColumns
from repro.data.tiers import DatasetTier, tier_columns
from repro.datagen.population import PopulationConfig, generate_population
from repro.kernels.frequent import population_eta_counts, population_eta_tops
from repro.kernels.profiles import population_profiles

seeds = st.integers(min_value=0, max_value=2**31 - 1)

float_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=0, max_value=64),
    elements=st.floats(allow_nan=True, allow_infinity=True, width=64),
)
int_arrays = hnp.arrays(
    dtype=np.int64, shape=st.integers(min_value=0, max_value=64)
)


class TestRoundTrip:
    @given(floats=float_arrays, ints=int_arrays)
    @settings(max_examples=25, deadline=None)
    def test_bundle_round_trip_is_bit_lossless(self, tmp_path_factory, floats, ints):
        cache = StageCache(tmp_path_factory.mktemp("mmap"))
        cache.store("k", {"f": floats, "i": ints})
        loaded = cache.load("k")
        # Byte-level comparison: NaN payloads and signed zeros must
        # survive, not merely compare equal.
        assert loaded["f"].tobytes() == floats.tobytes()
        assert loaded["i"].tobytes() == ints.tobytes()
        assert loaded["f"].dtype == floats.dtype
        assert loaded["i"].dtype == ints.dtype


class TestKernelEquivalence:
    @given(seed=seeds)
    @settings(max_examples=5, deadline=None)
    def test_kernels_bit_identical_on_mmap_columns(self, tmp_path_factory, seed):
        """Heap-served and map-served columns feed kernels identically."""
        users = generate_population(PopulationConfig(n_users=4, seed=seed))
        heap = PopulationColumns.from_users(users)
        cache = StageCache(tmp_path_factory.mktemp("mmap"))
        cache.store("pop", heap.arrays())
        mapped = PopulationColumns.from_arrays(cache.load("pop"))

        heap_profiles = population_profiles(
            heap.checkins.xs, heap.checkins.ys, heap.checkins.offsets
        )
        mapped_profiles = population_profiles(
            mapped.checkins.xs, mapped.checkins.ys, mapped.checkins.offsets
        )
        for name in ("xs", "ys", "counts", "offsets"):
            assert (
                getattr(heap_profiles, name).tobytes()
                == getattr(mapped_profiles, name).tobytes()
            )
        for eta in (0.5, 3.0):
            assert (
                population_eta_counts(heap_profiles, eta).tobytes()
                == population_eta_counts(mapped_profiles, eta).tobytes()
            )
            for h, m in zip(
                population_eta_tops(heap_profiles, eta),
                population_eta_tops(mapped_profiles, eta),
            ):
                assert h.tobytes() == m.tobytes()


TINY = DatasetTier(
    name="tiny-mmap",
    n_users=5,
    count_log_mean=math.log(30.0),
    count_log_sigma=0.3,
    max_checkins=60,
)


class TestCrashSafety:
    def _tiny(self, monkeypatch):
        monkeypatch.setitem(tiers.TIERS, "tiny-mmap", TINY)
        monkeypatch.setattr(tiers, "TIER_SHARD_USERS", 2)

    def test_mmap_tier_matches_heap_tier(self, monkeypatch, tmp_path):
        self._tiny(monkeypatch)
        heap = tier_columns("tiny-mmap")
        mapped = tier_columns(
            "tiny-mmap", StageCache(tmp_path / "cache"), mmap=True
        )
        for name, expected in heap.arrays().items():
            assert mapped.arrays()[name].tobytes() == expected.tobytes()

    def test_truncated_shard_regenerates(self, monkeypatch, tmp_path):
        """A torn shard write degrades to a miss and is regenerated."""
        self._tiny(monkeypatch)
        cache = StageCache(tmp_path / "cache")
        full = tier_columns("tiny-mmap", cache, mmap=True)
        # Snapshot the bytes now: truncating the backing files below
        # invalidates `full`'s live mappings.
        expected_bytes = {
            name: arr.tobytes() for name, arr in full.arrays().items()
        }
        del full
        # Truncate one shard bundle AND the combined bundle: the rebuild
        # must treat both as misses and regenerate only what's broken.
        config = tiers.tier_config("tiny-mmap")
        shard_dir = cache.path_for(tiers._shard_key(config, 2, 4)).parent
        shard_npy = shard_dir / "xs.npy"
        shard_npy.write_bytes(shard_npy.read_bytes()[:-8])
        combined_dir = cache.path_for(tiers._combined_key(config)).parent
        (combined_dir / "xs.npy").write_bytes(b"\x93NUMPY")
        again = tier_columns(
            "tiny-mmap", StageCache(tmp_path / "cache"), mmap=True
        )
        for name, expected in expected_bytes.items():
            assert again.arrays()[name].tobytes() == expected
