"""Unit tests for the named dataset tiers and their shard streaming."""

import math

import numpy as np
import pytest

from repro.data import tiers
from repro.data.cache import StageCache
from repro.data.tiers import (
    TIERS,
    DatasetTier,
    _shard_ranges,
    tier_columns,
    tier_config,
)

TINY = DatasetTier(
    name="tiny",
    n_users=5,
    count_log_mean=math.log(30.0),
    count_log_sigma=0.3,
    max_checkins=60,
)


@pytest.fixture
def tiny_tier(monkeypatch):
    monkeypatch.setitem(tiers.TIERS, "tiny", TINY)
    monkeypatch.setattr(tiers, "TIER_SHARD_USERS", 2)


class TestTierRegistry:
    def test_named_tiers_and_scales(self):
        assert set(TIERS) >= {"small", "city", "metro-100k"}
        assert TIERS["city"].n_users == 10_000
        assert TIERS["metro-100k"].n_users == 100_000

    def test_tier_config_resolves(self):
        config = tier_config("city")
        assert config.n_users == TIERS["city"].n_users
        assert config.seed == TIERS["city"].seed

    def test_unknown_tier_is_an_error(self):
        with pytest.raises(ValueError, match="unknown tier"):
            tier_config("galaxy")

    def test_shard_ranges_cover_population(self, tiny_tier):
        ranges = _shard_ranges(5)
        assert ranges == [(0, 2), (2, 4), (4, 5)]


class TestTierColumns:
    def test_cache_state_is_invisible(self, tiny_tier, tmp_path):
        """Uncached, cold-cached and warm-cached runs are bit-identical."""
        uncached = tier_columns("tiny")
        cache = StageCache(tmp_path / "cache")
        cold = tier_columns("tiny", cache)
        warm_cache = StageCache(tmp_path / "cache")
        warm = tier_columns("tiny", warm_cache)
        assert warm_cache.stats()["hits"] == len(_shard_ranges(5))
        for pop in (cold, warm):
            np.testing.assert_array_equal(pop.checkins.xs, uncached.checkins.xs)
            np.testing.assert_array_equal(
                pop.checkins.offsets, uncached.checkins.offsets
            )
            np.testing.assert_array_equal(pop.top_xs, uncached.top_xs)
            np.testing.assert_array_equal(
                pop.top_offsets, uncached.top_offsets
            )

    def test_worker_count_is_invisible(self, tiny_tier):
        one = tier_columns("tiny", workers=1)
        two = tier_columns("tiny", workers=2)
        np.testing.assert_array_equal(one.checkins.xs, two.checkins.xs)
        np.testing.assert_array_equal(one.checkins.ys, two.checkins.ys)
        np.testing.assert_array_equal(
            one.checkins.offsets, two.checkins.offsets
        )

    def test_partially_warm_cache_fills_missing_shards(self, tiny_tier, tmp_path):
        cache = StageCache(tmp_path / "cache")
        full = tier_columns("tiny", cache)
        # Drop one shard's entry and regenerate: only that shard recomputes.
        config = tier_config("tiny")
        key = tiers._shard_key(config, 2, 4)
        cache.path_for(key).unlink()
        again_cache = StageCache(tmp_path / "cache")
        again = tier_columns("tiny", again_cache)
        assert again_cache.stats()["misses"] == 1
        np.testing.assert_array_equal(again.checkins.xs, full.checkins.xs)
        np.testing.assert_array_equal(
            again.checkins.offsets, full.checkins.offsets
        )
        # The recomputed shard was published again: a third run hits.
        third_cache = StageCache(tmp_path / "cache")
        tier_columns("tiny", third_cache)
        assert third_cache.stats()["hits"] == len(_shard_ranges(5))
        assert third_cache.stats()["misses"] == 0
