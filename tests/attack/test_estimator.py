"""Unit tests for the MAP parameter-estimation attack (Eq. 5)."""

import numpy as np
import pytest

from repro.attack.estimator import (
    MAPAttack,
    gaussian_log_likelihood,
    laplace_log_likelihood,
    map_estimate,
)
from repro.geo.point import Point


class TestGaussianMAP:
    def test_picks_candidate_nearest_observation_mean(self, rng):
        truth = Point(100.0, 0.0)
        candidates = [Point(0, 0), truth, Point(300, 0)]
        observations = [
            Point(truth.x + dx, truth.y + dy)
            for dx, dy in rng.normal(0, 20, (200, 2))
        ]
        attack = MAPAttack.gaussian(sigma=20.0)
        est = attack.map_candidate(observations, candidates)
        assert est.candidate == truth

    def test_posterior_sums_to_one(self, rng):
        attack = MAPAttack.gaussian(sigma=10.0)
        est = attack.map_candidate(
            [Point(0, 0)], [Point(0, 0), Point(5, 0), Point(10, 0)]
        )
        assert est.posterior.sum() == pytest.approx(1.0)

    def test_more_observations_sharpen_posterior(self, rng):
        truth = Point(0.0, 0.0)
        candidates = [truth, Point(50.0, 0.0)]
        sigma = 100.0
        attack = MAPAttack.gaussian(sigma=sigma)
        obs = [Point(*row) for row in rng.normal(0, sigma, (500, 2))]
        few = attack.map_candidate(obs[:5], candidates)
        many = attack.map_candidate(obs, candidates)
        assert many.posterior.max() >= few.posterior.max() - 0.05

    def test_prior_shifts_decision(self):
        """A strong prior must beat a weak likelihood edge."""
        candidates = [Point(0, 0), Point(1, 0)]
        observations = [Point(0.4, 0.0)]  # slightly favours candidate 0
        est_flat = map_estimate(
            observations, candidates, gaussian_log_likelihood(10.0)
        )
        est_biased = map_estimate(
            observations,
            candidates,
            gaussian_log_likelihood(10.0),
            prior=np.array([0.01, 0.99]),
        )
        assert est_flat.index == 0
        assert est_biased.index == 1


class TestLaplaceMAP:
    def test_recovers_truth(self, rng):
        truth = Point(-200.0, 300.0)
        candidates = [Point(0, 0), truth, Point(500, 500)]
        observations = [
            Point(truth.x + dx, truth.y + dy)
            for dx, dy in rng.laplace(0, 50, (300, 2))
        ]
        attack = MAPAttack.laplace(epsilon=0.02)
        assert attack.map_candidate(observations, candidates).candidate == truth


class TestValidation:
    def test_empty_candidates_raise(self):
        with pytest.raises(ValueError):
            map_estimate([Point(0, 0)], [], gaussian_log_likelihood(1.0))

    def test_empty_observations_raise(self):
        with pytest.raises(ValueError):
            map_estimate([], [Point(0, 0)], gaussian_log_likelihood(1.0))

    def test_bad_prior_shape_raises(self):
        with pytest.raises(ValueError):
            map_estimate(
                [Point(0, 0)],
                [Point(0, 0), Point(1, 0)],
                gaussian_log_likelihood(1.0),
                prior=np.array([1.0]),
            )

    def test_nonpositive_prior_raises(self):
        with pytest.raises(ValueError):
            map_estimate(
                [Point(0, 0)],
                [Point(0, 0), Point(1, 0)],
                gaussian_log_likelihood(1.0),
                prior=np.array([1.0, 0.0]),
            )

    def test_bad_noise_params_raise(self):
        with pytest.raises(ValueError):
            gaussian_log_likelihood(0.0)
        with pytest.raises(ValueError):
            laplace_log_likelihood(-1.0)
