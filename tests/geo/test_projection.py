"""Unit tests for geodetic coordinates and the local projection."""

import math

import pytest

from repro.geo.projection import (
    EARTH_RADIUS_M,
    GeoPoint,
    LocalProjection,
    haversine_m,
)


class TestGeoPoint:
    def test_valid_coordinates(self):
        g = GeoPoint(31.0, 121.5)
        assert g.lat == 31.0

    @pytest.mark.parametrize("lat", [-91.0, 91.0])
    def test_rejects_bad_latitude(self, lat):
        with pytest.raises(ValueError):
            GeoPoint(lat, 0.0)

    @pytest.mark.parametrize("lon", [-181.0, 181.0])
    def test_rejects_bad_longitude(self, lon):
        with pytest.raises(ValueError):
            GeoPoint(0.0, lon)


class TestHaversine:
    def test_zero_distance(self):
        g = GeoPoint(31.0, 121.0)
        assert haversine_m(g, g) == 0.0

    def test_one_degree_latitude(self):
        d = haversine_m(GeoPoint(0.0, 0.0), GeoPoint(1.0, 0.0))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_M / 180.0, rel=1e-9)

    def test_symmetry(self):
        a, b = GeoPoint(30.7, 121.0), GeoPoint(31.4, 122.0)
        assert haversine_m(a, b) == pytest.approx(haversine_m(b, a))


class TestLocalProjection:
    def test_origin_maps_to_zero(self):
        origin = GeoPoint(31.05, 121.5)
        proj = LocalProjection(origin)
        p = proj.to_plane(origin)
        assert p.x == pytest.approx(0.0)
        assert p.y == pytest.approx(0.0)

    def test_roundtrip(self):
        proj = LocalProjection(GeoPoint(31.05, 121.5))
        g = GeoPoint(31.2, 121.8)
        back = proj.to_geo(proj.to_plane(g))
        assert back.lat == pytest.approx(g.lat, abs=1e-10)
        assert back.lon == pytest.approx(g.lon, abs=1e-10)

    def test_distance_matches_haversine_within_study_region(self):
        """Projection distortion stays well below the paper's thresholds."""
        proj = LocalProjection(GeoPoint(31.05, 121.5))
        a = GeoPoint(30.75, 121.1)
        b = GeoPoint(31.35, 121.9)
        planar = proj.to_plane(a).distance_to(proj.to_plane(b))
        true = haversine_m(a, b)
        # <0.1% relative error over the ~100 km diagonal.
        assert abs(planar - true) / true < 1e-3

    def test_north_is_positive_y(self):
        proj = LocalProjection(GeoPoint(31.0, 121.0))
        north = proj.to_plane(GeoPoint(31.1, 121.0))
        assert north.y > 0
        assert north.x == pytest.approx(0.0)

    def test_east_is_positive_x(self):
        proj = LocalProjection(GeoPoint(31.0, 121.0))
        east = proj.to_plane(GeoPoint(31.0, 121.1))
        assert east.x > 0
        assert east.y == pytest.approx(0.0)

    def test_rejects_polar_origin(self):
        with pytest.raises(ValueError):
            LocalProjection(GeoPoint(90.0, 0.0))
