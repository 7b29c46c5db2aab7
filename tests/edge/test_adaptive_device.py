"""Unit tests for the edge's risk-adaptive protection policy.

The policy (paper Section I: "assess the risk ... and adopt the
appropriate LPPM") is evaluated in ``repro.experiments.ext_adaptive``:
users the risk assessment flags get the permanent n-fold treatment,
low-risk users keep one-time noise.
"""

from types import SimpleNamespace

import numpy as np

from repro.core.accounting import LongitudinalExposureAccountant
from repro.edge.risk import RiskAssessor
from repro.experiments.ext_adaptive import _report_stream
from repro.geo.point import Point
from repro.profiles.checkin import SECONDS_PER_DAY, CheckIn


DAY = SECONDS_PER_DAY
HOME = Point(0.0, 0.0)


def routine_user(days=12, per_day=30):
    """A heavily routine user: hundreds of check-ins at one location."""
    return SimpleNamespace(
        trace=[
            CheckIn(day * DAY + k * (DAY / per_day), HOME)
            for day in range(days)
            for k in range(per_day)
        ]
    )


def diffuse_user(rng, days=12, per_day=2):
    """A light, diffuse user: few check-ins, all over the city."""
    return SimpleNamespace(
        trace=[
            CheckIn(i * DAY / per_day, Point(*rng.uniform(-20_000, 20_000, 2)))
            for i in range(days * per_day)
        ]
    )


def report(user, policy):
    return _report_stream(
        user, policy, RiskAssessor(), seed=5, accountant=LongitudinalExposureAccountant()
    )


class TestAdaptiveDevice:
    def test_routine_user_gets_pinned(self):
        _, permanent = report(routine_user(), "adaptive")
        assert permanent

    def test_diffuse_user_stays_unpinned(self):
        _, permanent = report(diffuse_user(np.random.default_rng(3)), "adaptive")
        assert not permanent

    def test_non_adaptive_pins_everyone(self):
        _, permanent = report(diffuse_user(np.random.default_rng(3)), "all permanent")
        assert permanent

    def test_adaptive_routine_user_served_from_pins(self):
        user = routine_user(days=100)
        stream, _ = report(user, "adaptive")
        # Every check-in is at HOME.  The edge learns its top locations
        # when a profile window closes (90 days, Section V-B); until then
        # each report is fresh noise, and from the rollover on the reports
        # are draws from HOME's pinned n-candidate set (n = 10).
        first_window = [c.timestamp < 90 * DAY for c in user.trace]
        fresh = [p for p, early in zip(stream, first_window) if early]
        pinned = [p for p, early in zip(stream, first_window) if not early]
        assert len({(c.x, c.y) for c in fresh}) == len(fresh)
        assert pinned
        assert len({(c.x, c.y) for c in pinned}) <= 10
