"""Unit tests for the QoS (expected distance loss) metric."""

import pytest

from repro.core.gaussian import GaussianMechanism, NFoldGaussianMechanism
from repro.core.laplace import PlanarLaplaceMechanism
from repro.core.mechanism import default_rng
from repro.core.params import GeoIndBudget, OneTimeBudget
from repro.core.posterior import PosteriorSelector, UniformSelector
from repro.geo.point import Point
from repro.metrics.qos import expected_distance_loss, report_distances


class TestReportDistances:
    def test_single_output_no_selector_needed(self):
        mech = PlanarLaplaceMechanism(OneTimeBudget(0.01), rng=default_rng(0))
        d = report_distances(mech, trials=200)
        assert d.shape == (200,)
        assert (d >= 0).all()

    def test_multi_output_requires_selector(self, paper_budget):
        mech = NFoldGaussianMechanism(paper_budget, rng=default_rng(1))
        with pytest.raises(ValueError):
            report_distances(mech, trials=5)

    def test_laplace_mean_distance_theory(self):
        eps = 0.01
        mech = PlanarLaplaceMechanism(OneTimeBudget(eps), rng=default_rng(2))
        loss = expected_distance_loss(mech, trials=4_000)
        assert loss == pytest.approx(2 / eps, rel=0.05)

    def test_posterior_selection_lowers_loss(self, paper_budget):
        mech_p = NFoldGaussianMechanism(paper_budget, rng=default_rng(3))
        loss_post = expected_distance_loss(
            mech_p,
            trials=400,
            selector=PosteriorSelector(mech_p.posterior_sigma, rng=default_rng(4)),
        )
        mech_u = NFoldGaussianMechanism(paper_budget, rng=default_rng(3))
        loss_unif = expected_distance_loss(
            mech_u, trials=400, selector=UniformSelector(rng=default_rng(4))
        )
        assert loss_post < loss_unif

    def test_post_process_hook_applied(self):
        mech = GaussianMechanism(
            GeoIndBudget(500, 1.0, 0.01, 1), rng=default_rng(5)
        )
        loss = expected_distance_loss(
            mech, trials=50, post_process=lambda p: Point(0.0, 0.0)
        )
        assert loss == 0.0

    def test_rejects_bad_trials(self):
        mech = PlanarLaplaceMechanism(OneTimeBudget(0.01))
        with pytest.raises(ValueError):
            report_distances(mech, trials=0)
