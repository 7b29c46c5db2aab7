"""Unit tests for the output selection module."""

import pytest

from repro.core.posterior import UniformSelector
from repro.edge.output_selection import OutputSelectionModule
from repro.geo.point import Point


class TestOutputSelectionModule:
    def test_select_returns_candidate_and_counts(self, rng):
        module = OutputSelectionModule(UniformSelector(rng=rng))
        cands = [Point(0, 0), Point(1, 1)]
        out = module.select(cands)
        assert out in cands
        assert module.selection_count == 1

    def test_posterior_factory(self, rng):
        module = OutputSelectionModule.posterior(100.0, rng=rng)
        cands = [Point(0, 0), Point(500, 0)]
        assert module.select(cands) in cands

    def test_posterior_prefers_near_mean(self, rng):
        module = OutputSelectionModule.posterior(50.0, rng=rng)
        # Mean is (100, 0); first candidate is right on it.
        cands = [Point(100, 0), Point(400, 0), Point(-200, 0)]
        picks = [module.select(cands) for _ in range(500)]
        assert picks.count(Point(100, 0)) > 300

    def test_select_batch_counts_and_membership(self, rng):
        module = OutputSelectionModule(UniformSelector(rng=rng))
        cands = [Point(i, 0) for i in range(10)]
        batch = module.select_batch(cands, 100)
        assert len(batch) == 100
        assert all(p in cands for p in batch)
        assert module.selection_count == 100

    def test_select_batch_rejects_bad_size(self, rng):
        module = OutputSelectionModule(UniformSelector(rng=rng))
        with pytest.raises(ValueError):
            module.select_batch([Point(0, 0)], 0)
