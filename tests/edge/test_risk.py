"""Unit tests for the edge-side risk assessment."""

import math

import pytest

from repro.core.gaussian import NFoldGaussianMechanism
from repro.core.laplace import PlanarLaplaceMechanism
from repro.core.mechanism import default_rng
from repro.core.params import GeoIndBudget
from repro.datagen.casestudy import make_fig4_user
from repro.datagen.obfuscate import one_time_obfuscate
from repro.edge.risk import RiskAssessor, RiskLevel, self_attack_margin
from repro.geo.point import Point
from repro.profiles.checkin import CheckIn
from repro.profiles.profile import LocationProfile, ProfileEntry
from repro.serve.harness import run_population


def profile_of(freqs):
    return LocationProfile(
        [ProfileEntry(Point(i * 1_000.0, 0.0), f) for i, f in enumerate(freqs)]
    )


class TestRiskAssessor:
    def test_routine_heavy_user_is_high_risk(self):
        """Low entropy + many observations + dominant top-1: HIGH."""
        assessment = RiskAssessor().assess(profile_of([800, 150, 50]))
        assert assessment.level is RiskLevel.HIGH
        assert assessment.needs_permanent_obfuscation
        assert len(assessment.reasons) == 3

    def test_light_diffuse_user_is_low_risk(self):
        """High entropy, few observations, no dominant location: LOW."""
        assessment = RiskAssessor().assess(profile_of([3] * 20))
        assert assessment.level is RiskLevel.LOW
        assert not assessment.needs_permanent_obfuscation

    def test_single_signal_is_medium(self):
        """Many observations but diffuse and balanced: MEDIUM."""
        assessment = RiskAssessor(entropy_threshold=1.0).assess(
            profile_of([40] * 10)  # 400 observations, entropy ln(10)=2.3
        )
        assert assessment.level is RiskLevel.MEDIUM

    def test_empty_profile(self):
        assessment = RiskAssessor().assess(LocationProfile())
        assert assessment.level is RiskLevel.LOW
        assert assessment.observations == 0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            RiskAssessor(entropy_threshold=0.0)
        with pytest.raises(ValueError):
            RiskAssessor(observation_threshold=0)
        with pytest.raises(ValueError):
            RiskAssessor(top1_share_threshold=1.0)


class TestSelfAttackMargin:
    def test_one_time_deployment_has_tiny_margin(self):
        user = make_fig4_user()
        mech = PlanarLaplaceMechanism.from_level(
            math.log(2), 200.0, rng=default_rng(1)
        )
        reported = one_time_obfuscate(user.trace, mech)
        margin = self_attack_margin(reported, user.true_tops, mech)
        assert margin < 200.0  # the edge sees the user is exposed

    def test_permanent_deployment_has_wide_margin(self):
        user = make_fig4_user()
        mech = NFoldGaussianMechanism(GeoIndBudget(500.0, 1.0, 0.01, 10))
        # The deployed edge's egress, one response per check-in in order.
        responses = run_population([user], seed=2).responses
        reported = [
            CheckIn(c.timestamp, Point(r.reported_x, r.reported_y))
            for c, r in zip(user.trace, responses)
        ]
        margin = self_attack_margin(reported, user.true_tops, mech)
        assert margin > 300.0

    def test_empty_stream_infinite_margin(self):
        mech = PlanarLaplaceMechanism.from_level(math.log(2), 200.0)
        assert self_attack_margin([], [Point(0, 0)], mech) == float("inf")

    def test_needs_true_tops(self):
        mech = PlanarLaplaceMechanism.from_level(math.log(2), 200.0)
        with pytest.raises(ValueError):
            self_attack_margin([], [], mech)
