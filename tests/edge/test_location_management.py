"""Unit tests for the location management module."""

import pytest

from repro.edge.location_management import (
    LocationManagementModule,
    flush_trailing_windows,
)
from repro.geo.point import Point
from repro.profiles.checkin import SECONDS_PER_DAY, CheckIn


DAY = SECONDS_PER_DAY


def ci(t, x=0.0, y=0.0):
    return CheckIn(t, Point(x, y))


class TestLocationManagementModule:
    def test_no_tops_before_first_window(self):
        m = LocationManagementModule(window_days=30.0)
        assert m.record(ci(0.0)) is None
        assert m.top_locations == []
        assert m.profile is None

    def test_tops_computed_on_rollover(self):
        m = LocationManagementModule(eta=0.8, window_days=30.0)
        for i in range(20):
            m.record(ci(i * DAY, 0.0, 0.0))
        tops = m.record(ci(31 * DAY, 0.0, 0.0))
        assert tops is not None
        assert len(tops) == 1
        assert tops[0].distance_to(Point(0, 0)) < 1.0
        assert m.windows_closed == 1

    def test_eta_selects_frequent_prefix(self):
        m = LocationManagementModule(eta=0.8, window_days=30.0)
        # 70% at home, 20% at work, 10% elsewhere.
        t = 0.0
        for _ in range(14):
            m.record(ci(t, 0.0, 0.0)); t += DAY / 10
        for _ in range(4):
            m.record(ci(t, 5_000.0, 0.0)); t += DAY / 10
        for _ in range(2):
            m.record(ci(t, 20_000.0, 0.0)); t += DAY / 10
        tops = m.record(ci(40 * DAY))
        # 14/20 = 0.7 < 0.8; adding work makes 0.9 >= 0.8: two tops.
        assert len(tops) == 2

    def test_flush_emits_partial_window(self):
        m = LocationManagementModule(window_days=30.0)
        m.record(ci(0.0))
        (tops,) = flush_trailing_windows([m])
        assert tops is not None
        assert m.top_locations == tops
        assert flush_trailing_windows([m]) == [None]  # the window is now empty

    def test_is_top_location(self):
        m = LocationManagementModule(eta=0.8, window_days=30.0)
        for i in range(10):
            m.record(ci(float(i), 0.0, 0.0))
        flush_trailing_windows([m])
        assert m.is_top_location(Point(20, 0), match_radius=100.0)
        assert not m.is_top_location(Point(500, 0), match_radius=100.0)

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            LocationManagementModule(eta=0.0)


class TestTopHistory:
    def test_history_grows_per_window(self):
        m = LocationManagementModule(window_days=10.0)
        for i in range(10):
            m.record(ci(i * DAY, 0.0, 0.0))
        m.record(ci(11 * DAY))  # closes the first window
        flush_trailing_windows([m])  # closes the trailing partial window
        assert len(m.top_history) == m.windows_closed == 2

    def test_history_entries_are_snapshots(self):
        m = LocationManagementModule(window_days=10.0)
        for i in range(10):
            m.record(ci(float(i), 0.0, 0.0))
        flush_trailing_windows([m])
        snapshot = m.top_history[0]
        assert snapshot == m.top_locations
        assert snapshot is not m.top_locations  # defensive copies


class TestFlushTrailingWindows:
    def test_each_module_closes_its_own_window(self):
        a = LocationManagementModule(window_days=30.0)
        b = LocationManagementModule(window_days=30.0)
        idle = LocationManagementModule(window_days=30.0)
        for i in range(5):
            a.record(ci(float(i), 0.0, 0.0))
            b.record(ci(float(i), 9_000.0, 0.0))
        tops_a, tops_idle, tops_b = flush_trailing_windows([a, idle, b])
        assert tops_idle is None and idle.windows_closed == 0
        assert tops_a == [Point(0.0, 0.0)] and a.top_locations == tops_a
        assert tops_b == [Point(9_000.0, 0.0)] and b.top_locations == tops_b
        assert a.profile.total_checkins == b.profile.total_checkins == 5

    def test_empty_batch(self):
        assert flush_trailing_windows([]) == []

    def test_rejects_mixed_configs(self):
        with pytest.raises(ValueError):
            flush_trailing_windows(
                [LocationManagementModule(eta=0.8), LocationManagementModule(eta=0.5)]
            )
