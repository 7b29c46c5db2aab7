"""Property-based tests for the output-selection weights."""

import itertools
import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.posterior import posterior_weights
from repro.geo.point import Point

# Domains mirror real deployments (city-scale coordinates, noise scales of
# tens of metres and up); far outside them, float64 cancellation in
# (x - mean)^2 makes exact translation invariance unattainable.
coords = st.floats(min_value=-1e5, max_value=1e5, allow_nan=False)
candidate_lists = st.lists(
    st.builds(Point, coords, coords), min_size=1, max_size=15
)
sigmas = st.floats(min_value=10.0, max_value=1e5, allow_nan=False)


class TestPosteriorWeightProperties:
    @given(candidate_lists, sigmas)
    def test_valid_distribution(self, cands, sigma):
        w = posterior_weights(cands, sigma)
        assert len(w) == len(cands)
        assert (w >= 0).all()
        assert math.isclose(float(w.sum()), 1.0, rel_tol=1e-9)
        assert np.isfinite(w).all()

    @given(candidate_lists, sigmas)
    # Two points equidistant from their midpoint: hypot gives bit-equal
    # distances, but the rounded mean leaves their squared distances
    # (~2.4e9) two ulps apart, and at sigma = 10 that is a 2.8e-9 weight
    # gap.  A float64 tie, not an ordering violation.
    @example(
        cands=[Point(0.0, -75667.0), Point(62419.0, -2.5436502719894634)],
        sigma=10.0,
    )
    def test_closer_to_mean_means_heavier(self, cands, sigma):
        w = posterior_weights(cands, sigma)
        arr = np.array([tuple(c) for c in cands], dtype=float)
        mean = arr.mean(axis=0)
        d = np.hypot(arr[:, 0] - mean[0], arr[:, 1] - mean[1])
        # Weights must be non-increasing in distance from the mean.  Pairs
        # whose distances agree to float64 rounding are ties: the weights
        # come from squared distances whose last-ulp rounding can order
        # them either way, and a large d^2 / (2 sigma^2) magnifies that
        # into a weight gap far above any fixed tolerance.
        tie = 8 * np.finfo(float).eps
        for i, j in itertools.permutations(range(len(cands)), 2):
            if d[j] - d[i] > tie * d[j]:
                assert w[i] >= w[j] - 1e-12

    @given(candidate_lists, sigmas, coords, coords)
    def test_translation_invariance(self, cands, sigma, dx, dy):
        w1 = posterior_weights(cands, sigma)
        shifted = [c.translate(dx, dy) for c in cands]
        w2 = posterior_weights(shifted, sigma)
        assert np.allclose(w1, w2, atol=1e-3)

    @given(st.builds(Point, coords, coords), st.integers(min_value=1, max_value=10), sigmas)
    def test_identical_candidates_uniform(self, p, k, sigma):
        w = posterior_weights([p] * k, sigma)
        assert np.allclose(w, 1.0 / k)
