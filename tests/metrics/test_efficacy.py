"""Unit tests for the advertising-efficacy metric (Definition 5)."""

import pytest

from repro.core.gaussian import NFoldGaussianMechanism
from repro.core.mechanism import default_rng
from repro.core.params import GeoIndBudget
from repro.core.posterior import PosteriorSelector, UniformSelector
from repro.geo.geometry import circle_overlap_fraction
from repro.geo.point import Point
from repro.metrics.efficacy import efficacy_of_report, efficacy_samples


class TestEfficacyOfReport:
    def test_perfect_report(self, rng):
        ae = efficacy_of_report(Point(0, 0), Point(0, 0), 5_000.0, rng=rng)
        assert ae == 1.0

    def test_disjoint_report(self, rng):
        ae = efficacy_of_report(Point(0, 0), Point(50_000, 0), 5_000.0, rng=rng)
        assert ae == 0.0

    def test_matches_lens_fraction(self, rng):
        """Sampling ads uniformly in AOR: AE = |AOI∩AOR| / |AOR| = lens share."""
        true, reported = Point(0, 0), Point(5_000, 0)
        ae = efficacy_of_report(true, reported, 5_000.0, ads_per_trial=40_000, rng=rng)
        expected = circle_overlap_fraction(true, reported, 5_000.0)
        assert ae == pytest.approx(expected, abs=0.01)

    def test_rejects_bad_args(self, rng):
        with pytest.raises(ValueError):
            efficacy_of_report(Point(0, 0), Point(0, 0), 0.0, rng=rng)
        with pytest.raises(ValueError):
            efficacy_of_report(Point(0, 0), Point(0, 0), 5_000.0, ads_per_trial=0, rng=rng)


class TestEfficacySamples:
    def test_shape_and_bounds(self, paper_budget):
        mech = NFoldGaussianMechanism(paper_budget, rng=default_rng(0))
        sel = UniformSelector(rng=default_rng(1))
        samples = efficacy_samples(mech, sel, trials=40, rng=default_rng(2))
        assert samples.shape == (40,)
        assert ((samples >= 0) & (samples <= 1)).all()

    def test_posterior_beats_uniform_at_large_n(self):
        """The paper's Observation 4 in miniature."""
        budget = GeoIndBudget(500.0, 1.0, 0.01, 10)
        mech_p = NFoldGaussianMechanism(budget, rng=default_rng(3))
        ae_post = efficacy_samples(
            mech_p,
            PosteriorSelector(mech_p.posterior_sigma, rng=default_rng(4)),
            trials=250,
            rng=default_rng(5),
        ).mean()
        mech_u = NFoldGaussianMechanism(budget, rng=default_rng(3))
        ae_unif = efficacy_samples(
            mech_u, UniformSelector(rng=default_rng(4)), trials=250, rng=default_rng(5)
        ).mean()
        assert ae_post > ae_unif + 0.1

    def test_rejects_bad_trials(self, paper_budget):
        mech = NFoldGaussianMechanism(paper_budget)
        with pytest.raises(ValueError):
            efficacy_samples(mech, UniformSelector(), trials=0)
