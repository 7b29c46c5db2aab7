"""Integration tests of the privacy guarantees themselves.

Verifies Theorem 2 across the paper's whole parameter grid, both
analytically (tight Gaussian trade-off) and empirically (sampled
hockey-stick divergence on the actual mechanism implementation), and
checks that post-processing steps (output selection) cannot leak.
"""

import math

import numpy as np
import pytest

from repro.core.baselines import PlainCompositionMechanism
from repro.core.gaussian import NFoldGaussianMechanism
from repro.core.mechanism import default_rng
from repro.core.params import GeoIndBudget
from repro.core.posterior import PosteriorSelector
from repro.core.verification import empirical_privacy_check, verify_gaussian_geo_ind
from repro.geo.point import Point


class TestTheorem2AcrossPaperGrid:
    @pytest.mark.parametrize("epsilon", [1.0, 1.5])
    @pytest.mark.parametrize("r", [500.0, 600.0, 700.0, 800.0])
    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_analytic(self, r, epsilon, n):
        budget = GeoIndBudget(r, epsilon, 0.01, n)
        mech = NFoldGaussianMechanism(budget)
        assert verify_gaussian_geo_ind(r, epsilon, 0.01, n, mech.sigma)

    def test_empirical_on_implementation(self):
        budget = GeoIndBudget(500.0, 1.0, 0.01, 10)
        mech = NFoldGaussianMechanism(budget)
        report = empirical_privacy_check(
            500.0, 1.0, 0.01, 10, mech.sigma, samples=80_000, rng=default_rng(0)
        )
        assert report.satisfied

    def test_composition_baseline_also_private(self):
        """The baseline is wasteful, not broken: it must still satisfy the budget."""
        budget = GeoIndBudget(500.0, 1.0, 0.01, 10)
        mech = PlainCompositionMechanism(budget)
        # Each output satisfies (r, eps/n, delta/n): check the per-output bound.
        assert verify_gaussian_geo_ind(500.0, 0.1, 0.001, 1, mech.sigma)


class TestPostProcessingSafety:
    def test_selection_output_is_subset_of_release(self, paper_budget):
        """Output selection can only ever re-emit already-released points."""
        mech = NFoldGaussianMechanism(paper_budget, rng=default_rng(1))
        selector = PosteriorSelector(mech.posterior_sigma, rng=default_rng(2))
        candidates = mech.obfuscate(Point(0, 0))
        for _ in range(50):
            assert selector.select(candidates) in candidates

    def test_selection_does_not_depend_on_true_location(self, paper_budget):
        """The selector sees only candidates — identical candidate sets must
        yield identical selection distributions regardless of the (hidden)
        true location."""
        mech = NFoldGaussianMechanism(paper_budget, rng=default_rng(3))
        candidates = mech.obfuscate(Point(0, 0))
        sel = PosteriorSelector(mech.posterior_sigma)
        p1 = sel.probabilities(candidates)
        # Shift the frame: same candidates expressed around another "truth".
        p2 = sel.probabilities(list(candidates))
        assert np.allclose(p1, p2)


class TestLongitudinalBudgetInvariance:
    def test_mean_of_pinned_candidates_is_the_only_leak(self, paper_budget):
        """Observing the pinned set a million times reveals nothing beyond
        the set itself: the attacker's best statistic is the candidate
        mean, whose distance to the truth is controlled by sigma/sqrt(n)."""
        rng = default_rng(4)
        mech = NFoldGaussianMechanism(paper_budget, rng=rng)
        truth = Point(0, 0)
        errors = []
        for _ in range(300):
            candidates = mech.obfuscate(truth)
            arr = np.array([tuple(c) for c in candidates])
            mean = arr.mean(axis=0)
            errors.append(math.hypot(*mean))
        expected = mech.sigma / math.sqrt(paper_budget.n)
        # Mean radial error of a 2D Gaussian is sigma * sqrt(pi/2).
        assert np.mean(errors) == pytest.approx(
            expected * math.sqrt(math.pi / 2), rel=0.15
        )
        # And it is far outside the attack thresholds (200 m / 500 m).
        assert np.median(errors) > 1_000.0
