"""Unit tests for the trace obfuscation deployment helpers."""

import pytest

from repro.core.gaussian import GaussianMechanism, NFoldGaussianMechanism
from repro.core.laplace import PlanarLaplaceMechanism
from repro.core.params import OneTimeBudget
from repro.core.posterior import PosteriorSelector, UniformSelector
from repro.datagen.obfuscate import one_time_obfuscate, permanent_obfuscate
from repro.geo.point import Point
from repro.profiles.checkin import CheckIn


def trace_at(point, count, t0=0.0):
    return [CheckIn(t0 + i, point) for i in range(count)]


class TestOneTimeObfuscate:
    def test_preserves_timestamps_and_length(self, rng):
        mech = PlanarLaplaceMechanism(OneTimeBudget(0.01), rng=rng)
        trace = trace_at(Point(0, 0), 50)
        out = one_time_obfuscate(trace, mech)
        assert len(out) == 50
        assert [c.timestamp for c in out] == [c.timestamp for c in trace]

    def test_locations_actually_perturbed(self, rng):
        mech = PlanarLaplaceMechanism(OneTimeBudget(0.01), rng=rng)
        out = one_time_obfuscate(trace_at(Point(0, 0), 20), mech)
        assert all(c.point != Point(0, 0) for c in out)

    def test_perturbations_independent(self, rng):
        mech = PlanarLaplaceMechanism(OneTimeBudget(0.01), rng=rng)
        out = one_time_obfuscate(trace_at(Point(0, 0), 50), mech)
        assert len({(c.x, c.y) for c in out}) == 50

    def test_rejects_multi_output_mechanism(self, paper_budget):
        mech = NFoldGaussianMechanism(paper_budget)
        with pytest.raises(ValueError):
            one_time_obfuscate(trace_at(Point(0, 0), 5), mech)

    def test_empty_trace(self, rng):
        mech = PlanarLaplaceMechanism(OneTimeBudget(0.01), rng=rng)
        assert one_time_obfuscate([], mech) == []


class TestPermanentObfuscate:
    def test_top_checkins_limited_to_candidate_set(self, rng, paper_budget):
        mech = NFoldGaussianMechanism(paper_budget, rng=rng)
        selector = UniformSelector(rng=rng)
        home = Point(0, 0)
        trace = trace_at(home, 200)
        out = permanent_obfuscate(trace, [home], mech, selector)
        distinct = {(c.x, c.y) for c in out}
        # Every report must come from the pinned 10-candidate set.
        assert len(distinct) <= 10

    def test_nomadic_checkins_fresh_noise(self, rng, paper_budget):
        mech = NFoldGaussianMechanism(paper_budget, rng=rng)
        nomadic_mech = GaussianMechanism(paper_budget.with_n(1), rng=rng)
        selector = UniformSelector(rng=rng)
        home = Point(0, 0)
        far = Point(50_000, 0)
        trace = trace_at(home, 10) + trace_at(far, 10, t0=100)
        out = permanent_obfuscate(
            trace, [home], mech, selector, nomadic_mechanism=nomadic_mech
        )
        nomadic_reports = {(c.x, c.y) for c in out[10:]}
        assert len(nomadic_reports) == 10  # all fresh draws

    def test_match_radius_controls_top_detection(self, rng, paper_budget):
        mech = NFoldGaussianMechanism(paper_budget, rng=rng)
        selector = UniformSelector(rng=rng)
        home = Point(0, 0)
        nearby = Point(80, 0)
        trace = trace_at(nearby, 50)
        tight = permanent_obfuscate(
            trace, [home], mech, selector, match_radius=50.0,
            nomadic_mechanism=GaussianMechanism(paper_budget.with_n(1), rng=rng),
        )
        loose = permanent_obfuscate(
            trace, [home], mech, selector, match_radius=100.0
        )
        assert len({(c.x, c.y) for c in tight}) == 50  # all nomadic
        assert len({(c.x, c.y) for c in loose}) <= 10  # all pinned

    def test_rejects_bad_match_radius(self, rng, paper_budget):
        mech = NFoldGaussianMechanism(paper_budget, rng=rng)
        with pytest.raises(ValueError):
            permanent_obfuscate([], [], mech, UniformSelector(), match_radius=0.0)

    def test_preserves_order_and_timestamps(self, rng, paper_budget):
        mech = NFoldGaussianMechanism(paper_budget, rng=rng)
        selector = PosteriorSelector(mech.posterior_sigma, rng=rng)
        trace = trace_at(Point(0, 0), 30)
        out = permanent_obfuscate(trace, [Point(0, 0)], mech, selector)
        assert [c.timestamp for c in out] == [c.timestamp for c in trace]
