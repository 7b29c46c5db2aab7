"""Property-based tests (hypothesis) for the geometric substrate."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.geometry import circle_area, lens_area
from repro.geo.point import Point, centroid, distance
from repro.geo.projection import GeoPoint, LocalProjection, haversine_m

coords = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
points = st.builds(Point, coords, coords)
radii = st.floats(min_value=1e-3, max_value=1e5, allow_nan=False)


class TestDistanceProperties:
    @given(points, points)
    def test_symmetry(self, a, b):
        assert distance(a, b) == distance(b, a)

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-6

    @given(points)
    def test_identity(self, p):
        assert distance(p, p) == 0.0

    @given(points, points)
    def test_non_negative(self, a, b):
        assert distance(a, b) >= 0.0

    @given(points, points, coords, coords)
    def test_translation_invariance(self, a, b, dx, dy):
        d1 = distance(a, b)
        d2 = distance(a.translate(dx, dy), b.translate(dx, dy))
        assert math.isclose(d1, d2, rel_tol=1e-6, abs_tol=1e-4)


class TestCentroidProperties:
    @given(st.lists(points, min_size=1, max_size=20))
    def test_centroid_in_bounding_box(self, pts):
        c = centroid(pts)
        assert min(p.x for p in pts) - 1e-6 <= c.x <= max(p.x for p in pts) + 1e-6
        assert min(p.y for p in pts) - 1e-6 <= c.y <= max(p.y for p in pts) + 1e-6

    @given(points, st.integers(min_value=1, max_value=10))
    def test_centroid_of_copies_is_point(self, p, k):
        c = centroid([p] * k)
        assert math.isclose(c.x, p.x, abs_tol=1e-9)
        assert math.isclose(c.y, p.y, abs_tol=1e-9)


class TestLensProperties:
    @given(radii, radii, st.floats(min_value=0, max_value=2e5, allow_nan=False))
    def test_bounded_by_smaller_circle(self, r1, r2, d):
        area = lens_area(r1, r2, d)
        # Relative slack: at r ~ 1e5 the bound is ~3e10 m^2, where float64
        # round-off alone exceeds any fixed absolute epsilon.
        bound = circle_area(min(r1, r2))
        assert 0.0 <= area <= bound * (1 + 1e-12) + 1e-6

    @given(radii, radii, st.floats(min_value=0, max_value=2e5, allow_nan=False))
    def test_symmetric_in_radii(self, r1, r2, d):
        assert math.isclose(
            lens_area(r1, r2, d), lens_area(r2, r1, d), rel_tol=1e-9, abs_tol=1e-9
        )

    @given(radii)
    def test_coincident_equal_circles(self, r):
        assert math.isclose(lens_area(r, r, 0.0), circle_area(r), rel_tol=1e-12)


geo_lats = st.floats(min_value=30.7, max_value=31.4, allow_nan=False)
geo_lons = st.floats(min_value=121.0, max_value=122.0, allow_nan=False)


class TestProjectionProperties:
    @given(geo_lats, geo_lons)
    @settings(max_examples=50)
    def test_roundtrip(self, lat, lon):
        proj = LocalProjection(GeoPoint(31.05, 121.5))
        g = GeoPoint(lat, lon)
        back = proj.to_geo(proj.to_plane(g))
        assert math.isclose(back.lat, lat, abs_tol=1e-9)
        assert math.isclose(back.lon, lon, abs_tol=1e-9)

    @given(geo_lats, geo_lons, geo_lats, geo_lons)
    @settings(max_examples=50)
    def test_distance_preserved_within_tolerance(self, lat1, lon1, lat2, lon2):
        proj = LocalProjection(GeoPoint(31.05, 121.5))
        a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
        true = haversine_m(a, b)
        planar = proj.to_plane(a).distance_to(proj.to_plane(b))
        # Worst case is an east-west line at the box edge, where the
        # cos(lat) factor differs from the origin's by ~0.5 %.
        assert abs(planar - true) <= max(2.0, 6e-3 * true)
