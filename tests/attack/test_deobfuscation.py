"""Unit tests for the top-n de-obfuscation attack (Algorithm 1)."""

import math

import numpy as np
import pytest

from repro.attack.deobfuscation import DeobfuscationAttack, attack_params_for
from repro.core.laplace import PlanarLaplaceMechanism
from repro.core.mechanism import default_rng
from repro.geo.point import Point
from repro.profiles.checkin import CheckIn


def noisy_cloud(center, count, scale, rng):
    return center + rng.normal(0, scale, (count, 2))


class TestAttackParams:
    def test_params_derive_from_mechanism_tails(self):
        m = PlanarLaplaceMechanism.from_level(math.log(2), 200.0)
        params = attack_params_for(m, alpha=0.05)
        assert params.theta == pytest.approx(m.noise_tail_radius(0.5))
        assert params.r_alpha == pytest.approx(m.noise_tail_radius(0.05))
        assert params.r_alpha > params.theta

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            DeobfuscationAttack(theta=0.0, r_alpha=10.0)
        with pytest.raises(ValueError):
            DeobfuscationAttack(theta=10.0, r_alpha=0.0)


class TestInference:
    def test_recovers_single_location(self, rng):
        truth = np.array([1000.0, -500.0])
        obs = noisy_cloud(truth, 400, 50.0, rng)
        attack = DeobfuscationAttack(theta=60.0, r_alpha=150.0)
        (top1,) = attack.estimate_xy(obs, 1)
        assert top1.distance_to(Point(*truth)) < 20.0

    def test_recovers_two_locations_in_rank_order(self, rng):
        big = noisy_cloud(np.array([0.0, 0.0]), 300, 40.0, rng)
        small = noisy_cloud(np.array([5_000.0, 0.0]), 100, 40.0, rng)
        obs = np.vstack([big, small])
        attack = DeobfuscationAttack(theta=60.0, r_alpha=130.0)
        results = attack.infer_top_locations(obs, 2)
        assert len(results) == 2
        assert results[0].location.distance_to(Point(0, 0)) < 30.0
        assert results[1].location.distance_to(Point(5_000, 0)) < 30.0
        assert results[0].support > results[1].support

    def test_accepts_checkin_sequences(self, rng):
        obs = noisy_cloud(np.array([0.0, 0.0]), 100, 10.0, rng)
        checkins = [CheckIn(float(i), Point(*row)) for i, row in enumerate(obs)]
        attack = DeobfuscationAttack(theta=20.0, r_alpha=40.0)
        assert len(attack.infer_top_locations(checkins, 1)) == 1

    def test_pool_exhaustion_returns_fewer(self, rng):
        obs = noisy_cloud(np.array([0.0, 0.0]), 30, 5.0, rng)
        attack = DeobfuscationAttack(theta=20.0, r_alpha=40.0)
        results = attack.infer_top_locations(obs, 5)
        assert 1 <= len(results) < 5

    def test_empty_observations(self):
        attack = DeobfuscationAttack(theta=10.0, r_alpha=20.0)
        assert attack.infer_top_locations(np.empty((0, 2)), 2) == []
        assert attack.estimate_xy(np.empty((0, 2)), 1) == []

    def test_bad_n_raises(self):
        attack = DeobfuscationAttack(theta=10.0, r_alpha=20.0)
        with pytest.raises(ValueError):
            attack.infer_top_locations(np.zeros((5, 2)), 0)

    def test_bad_array_shape_raises(self):
        attack = DeobfuscationAttack(theta=10.0, r_alpha=20.0)
        with pytest.raises(ValueError):
            attack.infer_top_locations(np.zeros((5, 3)), 1)

    def test_clusters_removed_between_ranks(self, rng):
        """Rank-2 must not re-use rank-1's points."""
        big = noisy_cloud(np.array([0.0, 0.0]), 200, 30.0, rng)
        small = noisy_cloud(np.array([3_000.0, 0.0]), 50, 30.0, rng)
        obs = np.vstack([big, small])
        attack = DeobfuscationAttack(theta=50.0, r_alpha=100.0)
        results = attack.infer_top_locations(obs, 2)
        assert results[0].support + results[1].support <= 250

    def test_trimming_ablation_changes_behaviour(self, rng):
        """Without trimming, overlapping clouds bias the centroid."""
        big = noisy_cloud(np.array([0.0, 0.0]), 300, 100.0, rng)
        near = noisy_cloud(np.array([600.0, 0.0]), 150, 100.0, rng)
        obs = np.vstack([big, near])
        with_trim = DeobfuscationAttack(theta=150.0, r_alpha=300.0)
        without_trim = DeobfuscationAttack(
            theta=150.0, r_alpha=300.0, use_trimming=False
        )
        err_with = with_trim.estimate_xy(obs, 1)[0].distance_to(Point(0, 0))
        err_without = without_trim.estimate_xy(obs, 1)[0].distance_to(Point(0, 0))
        # The merged no-trim cluster is dragged toward the second blob.
        assert err_without > err_with

    def test_against_mechanism_end_to_end(self, rng):
        """Full pipeline: obfuscate 500 reports of one location, recover it."""
        mechanism = PlanarLaplaceMechanism.from_level(
            math.log(4), 200.0, rng=default_rng(5)
        )
        truth = np.tile([2_000.0, 2_000.0], (500, 1))
        observed = mechanism.obfuscate_batch(truth)
        attack = DeobfuscationAttack.against(mechanism)
        (top1,) = attack.estimate_xy(observed, 1)
        assert top1.distance_to(Point(2_000, 2_000)) < 100.0
