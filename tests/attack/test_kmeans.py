"""Unit tests for the k-means attacker baseline."""

import numpy as np
import pytest

from repro.attack.kmeans import KMeansAttack, kmeans
from repro.geo.point import Point


def blobs(rng, centers, sizes, scale=1.0):
    parts = [rng.normal(c, scale, (s, 2)) for c, s in zip(centers, sizes)]
    return np.vstack(parts)


class TestKMeans:
    def test_recovers_separated_centroids(self, rng):
        pts = blobs(rng, [(0, 0), (100, 100)], [60, 40])
        result = kmeans(pts, k=2, rng=rng)
        assert result.sizes.tolist() == [60, 40]
        big, small = result.centroids
        assert np.hypot(*(big - [0, 0])) < 1.0
        assert np.hypot(*(small - [100, 100])) < 1.0

    def test_labels_match_sorted_centroids(self, rng):
        pts = blobs(rng, [(0, 0), (50, 0)], [30, 20])
        result = kmeans(pts, k=2, rng=rng)
        for i, label in enumerate(result.labels):
            c = result.centroids[label]
            d_own = np.hypot(*(pts[i] - c))
            d_other = min(
                np.hypot(*(pts[i] - other)) for other in result.centroids
            )
            assert d_own == pytest.approx(d_other)

    def test_k_equals_n_points(self, rng):
        pts = rng.uniform(0, 100, (5, 2))
        result = kmeans(pts, k=5, rng=rng)
        assert sorted(result.sizes.tolist()) == [1, 1, 1, 1, 1]

    def test_inertia_nonincreasing_in_k(self, rng):
        pts = blobs(rng, [(0, 0), (40, 0), (0, 40)], [30, 30, 30])
        i1 = kmeans(pts, 1, rng=np.random.default_rng(0)).inertia
        i3 = kmeans(pts, 3, rng=np.random.default_rng(0)).inertia
        assert i3 < i1

    def test_identical_points(self):
        pts = np.zeros((10, 2))
        result = kmeans(pts, k=2)
        assert result.inertia == pytest.approx(0.0)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 3)), 1)
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 0)
        with pytest.raises(ValueError):
            kmeans(np.zeros((2, 2)), 5)


class TestKMeansAttack:
    def test_top1_is_biggest_blob(self, rng):
        pts = blobs(rng, [(0, 0), (5_000, 0)], [200, 50], scale=30.0)
        attack = KMeansAttack(k=4, rng=rng)
        (top1,) = attack.estimate_xy(pts, 1)
        assert top1.distance_to(Point(0, 0)) < 50.0

    def test_top2_cover_both_blobs(self, rng):
        """With k matching the structure, the top-2 centroids hit both blobs.

        (k-means may split blobs when k is larger — which is exactly the
        weakness the ablation bench demonstrates against Algorithm 1 — so
        the test pins k=2 for a clean structural check.)
        """
        pts = blobs(rng, [(0, 0), (5_000, 0)], [200, 100], scale=30.0)
        attack = KMeansAttack(k=2, rng=rng)
        tops = attack.estimate_xy(pts, 2)
        assert tops[0].distance_to(Point(0, 0)) < 60.0
        assert tops[1].distance_to(Point(5_000, 0)) < 60.0

    def test_empty_observations(self):
        assert KMeansAttack().estimate_xy(np.empty((0, 2)), 1) == []

    def test_fewer_points_than_k(self, rng):
        pts = rng.uniform(0, 10, (3, 2))
        tops = KMeansAttack(k=8, rng=rng).estimate_xy(pts, 1)
        assert len(tops) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            KMeansAttack(k=0)
        with pytest.raises(ValueError):
            KMeansAttack().estimate_xy(np.zeros((5, 2)), 0)
