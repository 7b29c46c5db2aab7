"""Unit tests for the one-time trace obfuscation helper."""

import pytest

from repro.core.gaussian import NFoldGaussianMechanism
from repro.core.laplace import PlanarLaplaceMechanism
from repro.core.params import OneTimeBudget
from repro.datagen.obfuscate import one_time_obfuscate
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
