"""Unit tests for the discretized/truncated planar Laplace mechanism."""


import numpy as np
import pytest

from repro.core.discretization import (
    TruncatedDiscreteLaplaceMechanism,
    discretization_adjusted_epsilon,
    snap_to_grid,
)
from repro.core.mechanism import default_rng
from repro.core.params import OneTimeBudget
from repro.geo.bbox import BoundingBox
from repro.geo.point import Point


class TestSnapToGrid:
    def test_snaps_to_nearest_vertex(self):
        assert snap_to_grid(Point(12.0, 27.0), 10.0) == Point(10.0, 30.0)

    def test_on_grid_is_fixed_point(self):
        assert snap_to_grid(Point(20.0, -30.0), 10.0) == Point(20.0, -30.0)

    def test_bad_step_raises(self):
        with pytest.raises(ValueError):
            snap_to_grid(Point(0, 0), 0.0)


class TestAdjustedEpsilon:
    def test_stronger_than_nominal(self):
        eps = 0.01
        adjusted = discretization_adjusted_epsilon(eps, step=50.0)
        assert 0 < adjusted < eps

    def test_finer_grid_less_adjustment(self):
        eps = 0.01
        coarse = discretization_adjusted_epsilon(eps, 100.0)
        fine = discretization_adjusted_epsilon(eps, 1.0)
        assert fine > coarse
        assert fine == pytest.approx(eps, rel=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            discretization_adjusted_epsilon(0.0, 1.0)
        with pytest.raises(ValueError):
            discretization_adjusted_epsilon(0.01, 0.0)


class TestTruncatedDiscreteMechanism:
    def _mech(self, region=None, step=50.0, seed=0):
        return TruncatedDiscreteLaplaceMechanism(
            OneTimeBudget(0.01), grid_step=step, region=region,
            rng=default_rng(seed),
        )

    def test_outputs_on_grid(self):
        mech = self._mech()
        for _ in range(50):
            out = mech.obfuscate(Point(123.0, 456.0))[0]
            assert out.x % 50.0 == pytest.approx(0.0, abs=1e-9)
            assert out.y % 50.0 == pytest.approx(0.0, abs=1e-9)

    def test_outputs_inside_region(self):
        region = BoundingBox(-500.0, -500.0, 500.0, 500.0)
        mech = self._mech(region=region)
        for _ in range(100):
            out = mech.obfuscate(Point(450.0, 450.0))[0]
            assert region.contains(out)

    def test_batch_matches_constraints(self):
        region = BoundingBox(-1_000.0, -1_000.0, 1_000.0, 1_000.0)
        mech = self._mech(region=region)
        outs = mech.obfuscate_batch(np.zeros((500, 2)))
        assert (np.abs(outs) <= 1_000.0).all()
        assert np.allclose(outs % 50.0, 0.0)

    def test_runs_at_adjusted_epsilon(self):
        mech = self._mech()
        assert mech.adjusted_epsilon < mech.nominal_budget.epsilon

    def test_tail_radius_covers_rounding(self):
        continuous_tail = self._mech(step=1e-6).noise_tail_radius(0.05)
        discrete_tail = self._mech(step=200.0).noise_tail_radius(0.05)
        assert discrete_tail > continuous_tail

    def test_noise_distribution_close_to_continuous(self, rng):
        """Snapping shifts each point < step/sqrt(2); means should agree."""
        mech = self._mech(step=10.0, seed=3)
        outs = mech.obfuscate_batch(np.zeros((4_000, 2)))
        radii = np.hypot(outs[:, 0], outs[:, 1])
        # Mean radius of planar Laplace is 2/eps' (adjusted epsilon).
        assert radii.mean() == pytest.approx(2 / mech.adjusted_epsilon, rel=0.05)

    def test_bad_step_raises(self):
        with pytest.raises(ValueError):
            TruncatedDiscreteLaplaceMechanism(OneTimeBudget(0.01), grid_step=0.0)

    def test_single_output_mechanism(self):
        assert self._mech().n_outputs == 1
