"""Geometric substrate: planar points, projections, circle geometry, indexing."""

from repro.geo.bbox import BoundingBox, GeoBoundingBox
from repro.geo.geometry import (
    circle_area,
    circle_overlap_fraction,
    lens_area,
    points_in_any_circle,
    sample_uniform_disc,
    union_coverage_fraction,
)
from repro.geo.index import GridIndex, UnionFind, connected_components
from repro.geo.point import (
    Point,
    array_to_points,
    centroid,
    distance,
    distances_to,
    pairwise_distances,
    points_to_array,
)
from repro.geo.projection import EARTH_RADIUS_M, GeoPoint, LocalProjection, haversine_m

__all__ = [
    "UnionFind",
    "connected_components",
    "BoundingBox",
    "GeoBoundingBox",
    "GridIndex",
    "Point",
    "GeoPoint",
    "LocalProjection",
    "EARTH_RADIUS_M",
    "haversine_m",
    "array_to_points",
    "centroid",
    "distance",
    "distances_to",
    "pairwise_distances",
    "points_to_array",
    "circle_area",
    "circle_overlap_fraction",
    "lens_area",
    "points_in_any_circle",
    "sample_uniform_disc",
    "union_coverage_fraction",
]
