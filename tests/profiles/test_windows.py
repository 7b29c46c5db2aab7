"""Unit tests for time-windowed profile building."""

import pytest

from repro.geo.point import Point
from repro.profiles.checkin import SECONDS_PER_DAY, CheckIn
from repro.profiles.windows import WindowedProfileBuilder


DAY = SECONDS_PER_DAY


def ci(t, x=0.0, y=0.0):
    return CheckIn(t, Point(x, y))


class TestWindowedProfileBuilder:
    def test_no_emission_within_window(self):
        b = WindowedProfileBuilder(window_seconds=10 * DAY)
        assert b.add(ci(0.0)) is None
        assert b.add(ci(5 * DAY)) is None
        assert b.pending == 2

    def test_emission_on_rollover(self):
        b = WindowedProfileBuilder(window_seconds=10 * DAY)
        b.add(ci(0.0))
        b.add(ci(1 * DAY))
        result = b.add(ci(11 * DAY))
        assert result is not None
        assert result.profile.total_checkins == 2
        assert result.window_start == 0.0
        assert result.window_end == 10 * DAY
        # The triggering check-in belongs to the new window.
        assert b.pending == 1

    def test_gap_skips_empty_windows(self):
        b = WindowedProfileBuilder(window_seconds=10 * DAY)
        b.add(ci(0.0))
        result = b.add(ci(35 * DAY))
        assert result is not None
        # The next rollover should happen at the window containing 35d.
        assert b.add(ci(39 * DAY)) is None
        assert b.add(ci(41 * DAY)) is not None

    def test_take_pending_returns_partial_window(self):
        b = WindowedProfileBuilder(window_seconds=10 * DAY)
        b.add(ci(0.0))
        b.add(ci(3 * DAY))
        assert b.take_pending() == [ci(0.0), ci(3 * DAY)]
        assert b.pending == 0

    def test_take_pending_empty_returns_empty(self):
        b = WindowedProfileBuilder(window_seconds=10 * DAY)
        assert b.take_pending() == []

    def test_window_origin_survives_take_pending(self):
        b = WindowedProfileBuilder(window_seconds=10 * DAY)
        b.add(ci(0.0))
        b.take_pending()
        assert b.add(ci(5 * DAY)) is None  # still inside the first window
        result = b.add(ci(11 * DAY))
        assert result is not None and result.window_start == 0.0

    def test_out_of_order_checkins_raise(self):
        b = WindowedProfileBuilder(window_seconds=10 * DAY)
        b.add(ci(5 * DAY))
        with pytest.raises(ValueError):
            b.add(ci(1 * DAY))

    def test_profile_clusters_by_location(self, rng):
        b = WindowedProfileBuilder(window_seconds=10 * DAY, connect_radius=50.0)
        for i in range(20):
            b.add(ci(float(i), 0.0, 0.0))
        for i in range(10):
            b.add(ci(20.0 + i, 5_000.0, 0.0))
        result = b.add(ci(11 * DAY))  # rolls the window over
        assert len(result.profile) == 2
        assert result.profile[0].frequency == 20

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            WindowedProfileBuilder(window_seconds=0.0)
        with pytest.raises(ValueError):
            WindowedProfileBuilder(connect_radius=0.0)
