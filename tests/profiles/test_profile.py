"""Unit tests for location profiles and entropy (Eq. 2 / Eq. 3)."""

import math

import pytest

from repro.geo.point import Point
from repro.profiles.checkin import CheckIn
from repro.profiles.profile import LocationProfile, ProfileEntry


def trace_at(point, count, jitter=0.0, t0=0.0, rng=None):
    """Helper: `count` check-ins around a point with optional jitter."""
    out = []
    for i in range(count):
        dx = dy = 0.0
        if jitter and rng is not None:
            dx, dy = rng.normal(0, jitter, 2)
        out.append(CheckIn(t0 + i, Point(point.x + dx, point.y + dy)))
    return out


class TestProfileEntry:
    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError):
            ProfileEntry(Point(0, 0), 0)


class TestFromCheckins:
    def test_empty_trace_gives_empty_profile(self):
        profile = LocationProfile.from_checkins([])
        assert len(profile) == 0
        assert not profile

    def test_single_location(self, rng):
        trace = trace_at(Point(0, 0), 50, jitter=5.0, rng=rng)
        profile = LocationProfile.from_checkins(trace)
        assert len(profile) == 1
        assert profile[0].frequency == 50
        assert profile[0].location.distance_to(Point(0, 0)) < 5.0

    def test_two_locations_separated(self, rng):
        trace = trace_at(Point(0, 0), 30, jitter=5.0, rng=rng) + trace_at(
            Point(1000, 0), 10, jitter=5.0, rng=rng
        )
        profile = LocationProfile.from_checkins(trace)
        assert len(profile) == 2
        assert profile[0].frequency == 30  # ordered by frequency
        assert profile[1].frequency == 10

    def test_connect_radius_controls_merging(self):
        trace = [CheckIn(0, Point(0, 0)), CheckIn(1, Point(60, 0))]
        assert len(LocationProfile.from_checkins(trace, connect_radius=50.0)) == 2
        assert len(LocationProfile.from_checkins(trace, connect_radius=70.0)) == 1

    def test_total_checkins_preserved(self, rng):
        trace = trace_at(Point(0, 0), 25, jitter=3.0, rng=rng) + trace_at(
            Point(500, 500), 15, jitter=3.0, rng=rng
        )
        profile = LocationProfile.from_checkins(trace)
        assert profile.total_checkins == 40


class TestEntropy:
    def test_empty_profile(self):
        assert LocationProfile().entropy() == 0.0

    def test_single_location_zero_entropy(self):
        profile = LocationProfile([ProfileEntry(Point(0, 0), 100)])
        assert profile.entropy() == 0.0

    def test_uniform_two_locations(self):
        profile = LocationProfile(
            [ProfileEntry(Point(0, 0), 50), ProfileEntry(Point(1, 1), 50)]
        )
        assert profile.entropy() == pytest.approx(math.log(2))

    def test_uniform_k_locations(self):
        k = 8
        profile = LocationProfile(
            [ProfileEntry(Point(i, 0), 10) for i in range(k)]
        )
        assert profile.entropy() == pytest.approx(math.log(k))

    def test_skew_lowers_entropy(self):
        skewed = LocationProfile(
            [ProfileEntry(Point(0, 0), 90), ProfileEntry(Point(1, 1), 10)]
        )
        uniform = LocationProfile(
            [ProfileEntry(Point(0, 0), 50), ProfileEntry(Point(1, 1), 50)]
        )
        assert skewed.entropy() < uniform.entropy()


class TestTopAndOrdering:
    def test_top_k(self):
        profile = LocationProfile(
            [
                ProfileEntry(Point(0, 0), 5),
                ProfileEntry(Point(1, 0), 50),
                ProfileEntry(Point(2, 0), 20),
            ]
        )
        top2 = profile.top(2)
        assert [e.frequency for e in top2] == [50, 20]

    def test_top_more_than_available(self):
        profile = LocationProfile([ProfileEntry(Point(0, 0), 5)])
        assert len(profile.top(10)) == 1

    def test_top_negative_raises(self):
        with pytest.raises(ValueError):
            LocationProfile().top(-1)

    def test_iteration_order_deterministic(self):
        entries = [
            ProfileEntry(Point(1, 0), 10),
            ProfileEntry(Point(0, 0), 10),
        ]
        profile = LocationProfile(entries)
        assert [e.location.x for e in profile] == [0, 1]


class TestMerging:
    def test_merge_distinct_profiles(self):
        a = LocationProfile([ProfileEntry(Point(0, 0), 10)])
        b = LocationProfile([ProfileEntry(Point(1000, 0), 5)])
        merged = a.merged_with(b, merge_radius=100.0)
        assert len(merged) == 2
        assert merged.total_checkins == 15

    def test_merge_coalesces_nearby_locations(self):
        a = LocationProfile([ProfileEntry(Point(0, 0), 10)])
        b = LocationProfile([ProfileEntry(Point(30, 0), 30)])
        merged = a.merged_with(b, merge_radius=50.0)
        assert len(merged) == 1
        entry = merged[0]
        assert entry.frequency == 40
        # Frequency-weighted centroid: (0*10 + 30*30)/40 = 22.5.
        assert entry.location.x == pytest.approx(22.5)

    def test_merge_with_empty(self):
        a = LocationProfile([ProfileEntry(Point(0, 0), 10)])
        merged = a.merged_with(LocationProfile(), merge_radius=50.0)
        assert len(merged) == 1
