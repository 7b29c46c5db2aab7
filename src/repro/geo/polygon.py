"""Simple polygons: containment, area, bounding box.

Substrate for the paper's *areas targeting* category (Section II-A), where
advertisers target administrative regions rather than radii.  Implemented
from scratch: ray-casting containment (with boundary tolerance), shoelace
area, and centroid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.geo.bbox import BoundingBox
from repro.geo.point import Point

__all__ = ["Polygon"]


@dataclass(frozen=True)
class Polygon:
    """A simple (non-self-intersecting) polygon given by its vertex ring.

    Vertices may be listed in either orientation; the ring is implicitly
    closed (do not repeat the first vertex).
    """

    vertices: Tuple[Point, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 3:
            raise ValueError("a polygon needs at least three vertices")
        object.__setattr__(self, "vertices", tuple(self.vertices))

    @classmethod
    def from_coords(cls, coords: Sequence[Tuple[float, float]]) -> "Polygon":
        """Build a polygon from (x, y) coordinate pairs."""
        return cls(tuple(Point(float(x), float(y)) for x, y in coords))

    @classmethod
    def rectangle(cls, box: BoundingBox) -> "Polygon":
        """The axis-aligned rectangle of a bounding box."""
        return cls(
            (
                Point(box.min_x, box.min_y),
                Point(box.max_x, box.min_y),
                Point(box.max_x, box.max_y),
                Point(box.min_x, box.max_y),
            )
        )

    @classmethod
    def regular(cls, center: Point, radius: float, sides: int) -> "Polygon":
        """A regular polygon (useful to approximate circular districts)."""
        if sides < 3:
            raise ValueError("need at least three sides")
        if radius <= 0:
            raise ValueError("radius must be positive")
        angles = np.linspace(0.0, 2.0 * np.pi, sides, endpoint=False)
        return cls(
            tuple(
                Point(center.x + radius * float(np.cos(a)),
                      center.y + radius * float(np.sin(a)))
                for a in angles
            )
        )

    def area(self) -> float:
        """Unsigned area via the shoelace formula."""
        xs = np.array([v.x for v in self.vertices])
        ys = np.array([v.y for v in self.vertices])
        return float(
            abs(np.dot(xs, np.roll(ys, -1)) - np.dot(ys, np.roll(xs, -1))) / 2.0
        )

    def centroid(self) -> Point:
        """Area centroid (falls back to the vertex mean for degenerate area)."""
        xs = np.array([v.x for v in self.vertices])
        ys = np.array([v.y for v in self.vertices])
        cross = xs * np.roll(ys, -1) - np.roll(xs, -1) * ys
        a = cross.sum() / 2.0
        if abs(a) < 1e-12:
            return Point(float(xs.mean()), float(ys.mean()))
        cx = ((xs + np.roll(xs, -1)) * cross).sum() / (6.0 * a)
        cy = ((ys + np.roll(ys, -1)) * cross).sum() / (6.0 * a)
        return Point(float(cx), float(cy))

    def bounding_box(self) -> BoundingBox:
        """The polygon's axis-aligned bounding box."""
        return BoundingBox(
            min_x=min(v.x for v in self.vertices),
            min_y=min(v.y for v in self.vertices),
            max_x=max(v.x for v in self.vertices),
            max_y=max(v.y for v in self.vertices),
        )

    def contains(self, p: Point, boundary_tol: float = 1e-9) -> bool:
        """Ray-casting containment; boundary points count as inside."""
        n = len(self.vertices)
        inside = False
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            if _on_segment(a, b, p, boundary_tol):
                return True
            intersects = (a.y > p.y) != (b.y > p.y)
            if intersects:
                x_cross = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
                if p.x < x_cross:
                    inside = not inside
        return inside

    def contains_many(self, coords: np.ndarray) -> np.ndarray:
        """Vectorised containment mask for an ``(n, 2)`` array."""
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError(f"expected (n, 2) coords, got {coords.shape}")
        xs = np.array([v.x for v in self.vertices])
        ys = np.array([v.y for v in self.vertices])
        xa, ya = xs, ys
        xb, yb = np.roll(xs, -1), np.roll(ys, -1)
        px = coords[:, 0][:, None]
        py = coords[:, 1][:, None]
        crosses = (ya > py) != (yb > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = xa + (py - ya) * (xb - xa) / (yb - ya)
        hits = crosses & (px < x_cross)
        return hits.sum(axis=1) % 2 == 1


def _on_segment(a: Point, b: Point, p: Point, tol: float) -> bool:
    """Is ``p`` within ``tol`` of the segment ``ab``?"""
    ab2 = (b.x - a.x) ** 2 + (b.y - a.y) ** 2
    # Exact == 0.0 is intended: it only guards the division below, and the
    # near-degenerate case is already handled by clamping t to [0, 1].
    if ab2 == 0.0:  # reprolint: disable=FLT001
        return p.distance_to(a) <= tol
    t = ((p.x - a.x) * (b.x - a.x) + (p.y - a.y) * (b.y - a.y)) / ab2
    t = max(0.0, min(1.0, t))
    proj = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
    return p.distance_to(proj) <= tol
