"""Unit tests for the analytic and empirical geo-IND verification tools."""

import math

import pytest

from repro.core.calibration import gaussian_sigma_nfold, gaussian_sigma_single
from repro.core.verification import (
    empirical_privacy_check,
    gaussian_delta,
    verify_gaussian_geo_ind,
)


class TestGaussianDelta:
    def test_zero_distance_means_zero_delta(self):
        assert gaussian_delta(0.0, 100.0, 1.0) == 0.0

    def test_delta_decreases_with_scale(self):
        d1 = gaussian_delta(500, 1_000, 1.0)
        d2 = gaussian_delta(500, 2_000, 1.0)
        assert d2 < d1

    def test_delta_decreases_with_epsilon(self):
        assert gaussian_delta(500, 1_000, 2.0) < gaussian_delta(500, 1_000, 0.5)

    def test_delta_increases_with_distance(self):
        assert gaussian_delta(1_000, 1_000, 1.0) > gaussian_delta(100, 1_000, 1.0)

    def test_delta_in_unit_interval(self):
        for dist in (10, 500, 5_000):
            for scale in (100, 1_000):
                v = gaussian_delta(dist, scale, 1.0)
                assert 0.0 <= v <= 1.0

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            gaussian_delta(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_delta(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_delta(1.0, 1.0, -1.0)


class TestAnalyticVerification:
    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("r", [500.0, 800.0])
    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_calibrated_sigma_satisfies_budget(self, r, epsilon, n):
        """Theorem 2's sigma must pass the tight Gaussian trade-off check."""
        delta = 0.01
        sigma = gaussian_sigma_nfold(r, epsilon, delta, n)
        assert verify_gaussian_geo_ind(r, epsilon, delta, n, sigma)

    def test_undersized_sigma_fails(self):
        """A sigma far below calibration must violate the budget."""
        r, eps, delta, n = 500.0, 1.0, 0.01, 10
        sigma = gaussian_sigma_nfold(r, eps, delta, n) / 20.0
        assert not verify_gaussian_geo_ind(r, eps, delta, n, sigma)

    def test_lemma1_not_wastefully_loose(self):
        """Calibration should be within ~10x of the tight requirement.

        (Lemma 1 is a sufficient condition, so some slack is expected, but
        wild overshoot would indicate a formula bug.)
        """
        r, eps, delta = 500.0, 1.0, 0.01
        sigma = gaussian_sigma_single(r, eps, delta)
        assert not verify_gaussian_geo_ind(r, eps, delta, 1, sigma / 10.0)


class TestEmpiricalCheck:
    def test_calibrated_mechanism_passes(self, rng):
        r, eps, delta, n = 500.0, 1.0, 0.01, 10
        sigma = gaussian_sigma_nfold(r, eps, delta, n)
        report = empirical_privacy_check(
            r, eps, delta, n, sigma, samples=60_000, rng=rng
        )
        assert report.satisfied
        assert report.estimated_delta < delta

    def test_broken_mechanism_fails(self, rng):
        """Grossly undersized noise must be caught empirically."""
        r, eps, delta, n = 500.0, 1.0, 0.01, 4
        sigma = gaussian_sigma_nfold(r, eps, delta, n) / 30.0
        report = empirical_privacy_check(
            r, eps, delta, n, sigma, samples=30_000, rng=rng
        )
        assert not report.satisfied

    def test_empirical_close_to_analytic(self, rng):
        """The sampled hockey-stick should approximate the closed form."""
        r, n = 500.0, 5
        sigma = 1_500.0
        eps = 0.8
        analytic = gaussian_delta(r, sigma / math.sqrt(n), eps)
        report = empirical_privacy_check(
            r, eps, 1e-9, n, sigma, samples=150_000, rng=rng
        )
        assert report.estimated_delta == pytest.approx(analytic, rel=0.15, abs=5e-4)

    def test_rejects_bad_samples(self, rng):
        with pytest.raises(ValueError):
            empirical_privacy_check(500, 1.0, 0.01, 1, 1000.0, samples=0, rng=rng)
