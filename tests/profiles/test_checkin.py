"""Unit tests for check-in records and window filtering."""

import pytest

from repro.geo.point import Point
from repro.profiles.checkin import CheckIn, checkins_to_array, filter_window


class TestCheckIn:
    def test_ordering_is_chronological(self):
        a = CheckIn(100.0, Point(5, 5))
        b = CheckIn(50.0, Point(0, 0))
        assert sorted([a, b])[0] is b

    def test_coordinate_accessors(self):
        c = CheckIn(0.0, Point(3.0, 4.0))
        assert (c.x, c.y) == (3.0, 4.0)

    def test_displaced(self):
        c = CheckIn(10.0, Point(1.0, 1.0))
        d = c.displaced(2.0, -1.0)
        assert d.point == Point(3.0, 0.0)
        assert d.timestamp == 10.0
        assert c.point == Point(1.0, 1.0)

    def test_frozen(self):
        c = CheckIn(0.0, Point(0, 0))
        with pytest.raises(AttributeError):
            c.timestamp = 5.0


class TestCheckinsToArray:
    def test_packs_coordinates(self):
        cs = [CheckIn(0.0, Point(1, 2)), CheckIn(1.0, Point(3, 4))]
        arr = checkins_to_array(cs)
        assert arr.tolist() == [[1, 2], [3, 4]]

    def test_empty(self):
        assert checkins_to_array([]).shape == (0, 2)


class TestFilterWindow:
    def _trace(self):
        return [CheckIn(float(t), Point(0, 0)) for t in range(10)]

    def test_half_open_interval(self):
        out = filter_window(self._trace(), 2.0, 5.0)
        assert [c.timestamp for c in out] == [2.0, 3.0, 4.0]

    def test_empty_window(self):
        assert filter_window(self._trace(), 100.0, 200.0) == []

    def test_inverted_window_raises(self):
        with pytest.raises(ValueError):
            filter_window(self._trace(), 5.0, 2.0)

    def test_full_window(self):
        assert len(filter_window(self._trace(), 0.0, 100.0)) == 10
