"""Unit tests for bootstrap confidence intervals."""

import numpy as np
import pytest

from repro.metrics.bootstrap import bootstrap_ci, proportion_ci


class TestBootstrapCi:
    def test_interval_contains_estimate(self, rng):
        samples = rng.normal(10.0, 2.0, 200)
        ci = bootstrap_ci(samples, rng=rng)
        assert ci.low <= ci.estimate <= ci.high

    def test_coverage_of_true_mean(self):
        """~95% of 95% CIs should cover the true mean."""
        true_mean = 5.0
        master = np.random.default_rng(0)
        covered = 0
        runs = 100
        for _ in range(runs):
            samples = master.normal(true_mean, 1.0, 80)
            ci = bootstrap_ci(samples, rng=master, n_resamples=400)
            covered += true_mean in ci
        assert covered >= 85  # loose lower bound for 95% nominal

    def test_width_shrinks_with_sample_size(self, rng):
        small = bootstrap_ci(rng.normal(0, 1, 20), rng=np.random.default_rng(1))
        large = bootstrap_ci(rng.normal(0, 1, 2_000), rng=np.random.default_rng(1))
        assert large.width < small.width

    def test_custom_statistic(self, rng):
        samples = rng.normal(0, 1, 500)
        ci = bootstrap_ci(samples, statistic=np.median, rng=rng)
        assert ci.low <= np.median(samples) <= ci.high

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            bootstrap_ci([], rng=rng)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], confidence=1.0, rng=rng)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], n_resamples=0, rng=rng)


class TestProportionCi:
    def test_estimate_is_rate(self, rng):
        ci = proportion_ci(30, 100, rng=rng)
        assert ci.estimate == pytest.approx(0.3)
        assert 0.0 <= ci.low <= 0.3 <= ci.high <= 1.0

    def test_extremes(self, rng):
        all_fail = proportion_ci(0, 50, rng=rng)
        assert all_fail.estimate == 0.0
        all_win = proportion_ci(50, 50, rng=rng)
        assert all_win.estimate == 1.0

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            proportion_ci(1, 0, rng=rng)
        with pytest.raises(ValueError):
            proportion_ci(5, 3, rng=rng)
