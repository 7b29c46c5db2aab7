"""Unit tests for the attack's connectivity clustering stage."""

import numpy as np
import pytest

from repro.attack.clustering import connectivity_clusters, largest_cluster


class TestConnectivityClusters:
    def test_two_blobs(self, rng):
        a = rng.normal(0, 1, (40, 2))
        b = rng.normal(200, 1, (15, 2))
        clusters = connectivity_clusters(np.vstack([a, b]), theta=10.0)
        assert [c.size for c in clusters] == [40, 15]

    def test_centroid_accuracy(self, rng):
        pts = rng.normal(50, 2, (100, 2))
        clusters = connectivity_clusters(pts, theta=15.0)
        assert len(clusters) == 1
        c = clusters[0].centroid
        assert abs(c.x - 50) < 1.0
        assert abs(c.y - 50) < 1.0

    def test_empty_input(self):
        assert connectivity_clusters(np.empty((0, 2)), 1.0) == []

    def test_bad_theta_raises(self):
        with pytest.raises(ValueError):
            connectivity_clusters(np.zeros((2, 2)), 0.0)

    def test_indices_refer_to_input_rows(self, rng):
        pts = np.array([[0.0, 0.0], [100.0, 0.0], [0.5, 0.0]])
        clusters = connectivity_clusters(pts, theta=1.0)
        big = clusters[0]
        assert sorted(big.indices) == [0, 2]


class TestLargestCluster:
    def test_returns_biggest(self, rng):
        a = rng.normal(0, 0.5, (10, 2))
        b = rng.normal(100, 0.5, (30, 2))
        big = largest_cluster(np.vstack([a, b]), theta=5.0)
        assert big.size == 30

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            largest_cluster(np.empty((0, 2)), 1.0)
