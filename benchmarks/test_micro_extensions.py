"""Micro-benchmarks for the extension modules."""

import numpy as np

from repro.attack.kmeans import kmeans
from repro.core.mechanism import default_rng
from repro.core.remap import BayesianRemap, LocationPrior, gaussian_noise_loglik
from repro.geo.point import Point


def test_bayesian_remap(benchmark):
    prior = LocationPrior.uniform_grid(Point(0, 0), half_extent=5_000.0, step=250.0)
    remap = BayesianRemap(prior, gaussian_noise_loglik(1_500.0))
    benchmark(remap.remap, Point(800.0, -400.0))


def test_kmeans_2k_points(benchmark):
    rng = default_rng(0)
    pts = np.vstack(
        [rng.normal(0, 50, (1_500, 2)), rng.normal(5_000, 50, (500, 2))]
    )
    benchmark(kmeans, pts, 6, default_rng(1))

