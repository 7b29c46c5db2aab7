"""Unit tests for planar and geodetic bounding boxes."""

import pytest

from repro.geo.bbox import BoundingBox, GeoBoundingBox
from repro.geo.point import Point
from repro.geo.projection import GeoPoint


class TestBoundingBox:
    def test_dimensions(self):
        box = BoundingBox(0, 0, 10, 4)
        assert box.width == 10
        assert box.height == 4
        assert box.center == Point(5, 2)

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            BoundingBox(1, 0, 0, 1)

    def test_contains_boundary(self):
        box = BoundingBox(0, 0, 1, 1)
        assert box.contains(Point(0, 0))
        assert box.contains(Point(1, 1))
        assert not box.contains(Point(1.001, 0.5))

    def test_clamp_inside_is_identity(self):
        box = BoundingBox(0, 0, 10, 10)
        assert box.clamp(Point(5, 5)) == Point(5, 5)

    def test_clamp_projects_outside_points(self):
        box = BoundingBox(0, 0, 10, 10)
        assert box.clamp(Point(-5, 20)) == Point(0, 10)

    def test_sample_uniform_inside(self, rng):
        box = BoundingBox(-5, 2, 5, 8)
        pts = box.sample_uniform(200, rng)
        assert pts.shape == (200, 2)
        assert (pts[:, 0] >= -5).all() and (pts[:, 0] <= 5).all()
        assert (pts[:, 1] >= 2).all() and (pts[:, 1] <= 8).all()

    def test_expand_positive_and_negative(self):
        box = BoundingBox(0, 0, 10, 10)
        assert box.expand(2) == BoundingBox(-2, -2, 12, 12)
        assert box.expand(-2) == BoundingBox(2, 2, 8, 8)

    def test_expand_degenerate_raises(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 2, 2).expand(-2)


class TestGeoBoundingBox:
    def test_center(self):
        box = GeoBoundingBox(30.7, 121.0, 31.4, 122.0)
        c = box.center
        assert c.lat == pytest.approx(31.05)
        assert c.lon == pytest.approx(121.5)

    def test_contains(self):
        box = GeoBoundingBox(30.7, 121.0, 31.4, 122.0)
        assert box.contains(GeoPoint(31.0, 121.5))
        assert not box.contains(GeoPoint(32.0, 121.5))

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            GeoBoundingBox(31.4, 121.0, 30.7, 122.0)
