"""A uniform-grid spatial index for fixed-radius neighbour queries.

The longitudinal attack's connectivity clustering (Algorithm 1) needs to
group tens of thousands of check-ins by "within threshold distance of each
other", transitively.  A naive all-pairs scan is O(n^2) and a naive
per-point region query still degenerates on dense clusters (a top location
contributes thousands of near-coincident points).  This index therefore
implements clustering with a *cell-level union-find*:

* points are bucketed into square cells of side ``radius / sqrt(2)``, so
  any two points sharing a cell are guaranteed within ``radius`` and can
  be unioned for free;
* only nearby cell *pairs* are then tested for a connecting point pair,
  vectorised with an early exit — once two components merge, no further
  pairs between them are examined.

This keeps clustering near-linear for both dense routine clusters and
scattered nomadic points.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterator, List, Tuple

import numpy as np

__all__ = ["GridIndex", "UnionFind", "connected_components", "component_labels"]

CellKey = Tuple[int, int]


class UnionFind:
    """Array-based disjoint-set union with path compression and rank."""

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError("size must be non-negative")
        self._parent = np.arange(size, dtype=np.int64)
        self._rank = np.zeros(size, dtype=np.int8)

    def find(self, i: int) -> int:
        """Root of ``i``'s set, compressing the path walked."""
        parent = self._parent
        root = i
        while parent[root] != root:
            root = parent[root]
        # Path compression.
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return int(root)

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; returns True if they were separate."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        return True

    def groups(self) -> Dict[int, List[int]]:
        """Map each root to the sorted list of its members."""
        out: Dict[int, List[int]] = defaultdict(list)
        for i in range(len(self._parent)):
            out[self.find(i)].append(i)
        return out


class GridIndex:
    """Bucket ``(n, 2)`` points into a uniform grid of ``cell_size`` metres.

    Points are referenced by their integer row index into the original
    array, so callers can map query results back to their own records.
    """

    def __init__(self, points: np.ndarray, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError(f"expected (n, 2) points, got shape {points.shape}")
        self._points = points
        self._cell_size = cell_size
        self._cells = _bucket(points, cell_size)

    def __len__(self) -> int:
        return len(self._points)

    @property
    def cell_size(self) -> float:
        """Edge length of one grid cell."""
        return self._cell_size

    def query(self, x: float, y: float, radius: float) -> List[int]:
        """Indices of all points within ``radius`` of the coordinate ``(x, y)``."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        # One ring beyond the exact-arithmetic reach: a point mathematically
        # just outside ``radius`` can still satisfy the rounded float
        # predicate ``d2 <= radius**2`` (e.g. query at -0.0 epsilon against
        # a point exactly ``radius`` away), and it may live one cell past
        # the exact range.  The extra ring makes the candidate set a strict
        # superset of everything the final comparison can accept.
        reach = max(1, math.ceil(radius / self._cell_size)) + 1
        cx = math.floor(x / self._cell_size)
        cy = math.floor(y / self._cell_size)
        buckets = []
        for gx in range(cx - reach, cx + reach + 1):
            for gy in range(cy - reach, cy + reach + 1):
                b = self._cells.get((gx, gy))
                if b is not None:
                    buckets.append(b)
        if not buckets:
            return []
        candidates = np.concatenate(buckets)
        pts = self._points[candidates]
        mask = (pts[:, 0] - x) ** 2 + (pts[:, 1] - y) ** 2 <= radius * radius
        return [int(i) for i in candidates[mask]]

    def neighbors_within(self, idx: int, radius: float) -> List[int]:
        """Indices of points within ``radius`` of point ``idx`` (excluding itself)."""
        x, y = self._points[idx]
        return [j for j in self.query(float(x), float(y), radius) if j != idx]

    def connected_components(self, radius: float) -> List[List[int]]:
        """Group point indices into transitive fixed-radius components.

        Two points are connected when their distance is at most ``radius``;
        components are the transitive closure — exactly the clustering rule
        of the paper's Algorithm 1 line 2.  Returned components are sorted
        by size, largest first, with ties broken by smallest member index.
        """
        if radius <= 0:
            raise ValueError("radius must be positive")
        return connected_components(self._points, radius)

    def iter_cells(self) -> Iterator[Tuple[CellKey, np.ndarray]]:
        """Iterate over ``(cell_key, point_indices)`` pairs (for diagnostics)."""
        return iter(self._cells.items())


def _bucket(points: np.ndarray, cell_size: float) -> Dict[CellKey, np.ndarray]:
    """Group row indices by grid cell, each bucket a numpy index array."""
    cells: Dict[CellKey, np.ndarray] = {}
    if len(points) == 0:
        return cells
    keys = np.floor(points / cell_size).astype(np.int64)
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    sorted_keys = keys[order]
    change = np.ones(len(order), dtype=bool)
    change[1:] = (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)
    starts = np.flatnonzero(change)
    bounds = np.append(starts, len(order))
    for s, e in zip(bounds[:-1], bounds[1:]):
        key = (int(sorted_keys[s, 0]), int(sorted_keys[s, 1]))
        cells[key] = order[s:e]
    return cells


def _cell_roots(points: np.ndarray, radius: float) -> np.ndarray:
    """Union-find over *cells* (not points): each point's component root.

    All points sharing a cell are within ``radius`` by construction, so
    connectivity only has to be resolved at the cell level — the union-find
    touches O(#cells) nodes instead of O(#points), which is what keeps
    clustering a year of check-ins (thousands of near-coincident points per
    top location) cheap.  Cell keys are encoded as sorted int64 codes and
    neighbour cells located with ``searchsorted``, so the python-level work
    is proportional to the number of *actually adjacent* cell pairs.
    Returns ``point_root`` where ``point_root[i]`` is an
    arbitrary-but-deterministic component id for point ``i``.
    """
    n = len(points)
    # Side radius/sqrt(2): same-cell points are within radius by construction.
    cell = radius / math.sqrt(2.0)
    keys = np.floor(points / cell).astype(np.int64)
    kx = keys[:, 0] - keys[:, 0].min()
    ky = keys[:, 1] - keys[:, 1].min()
    # Row width leaves >= 2 cells of slack so +-2 neighbour offsets can
    # never alias a cell in an adjacent row.
    width = int(ky.max()) + 5
    code = kx * width + ky
    order = np.argsort(code, kind="stable")
    sorted_code = code[order]
    is_start = np.ones(n, dtype=bool)
    is_start[1:] = sorted_code[1:] != sorted_code[:-1]
    starts = np.flatnonzero(is_start)
    bounds = np.append(starts, n)
    unique_codes = sorted_code[starts]
    n_cells = len(unique_codes)

    uf = UnionFind(n_cells)
    # Cells whose minimum gap can be <= radius: Chebyshev offset <= 2,
    # excluding offsets whose corner gap exceeds radius ((3,*) etc. are
    # already out of range).
    offsets = [
        (ox, oy)
        for ox in range(-2, 3)
        for oy in range(-2, 3)
        if (ox, oy) > (0, 0)  # half-plane: each unordered pair once
        and math.hypot(max(0, abs(ox) - 1), max(0, abs(oy) - 1)) * cell <= radius
    ]
    r2 = radius * radius
    for ox, oy in offsets:
        target = unique_codes + (ox * width + oy)
        pos = np.searchsorted(unique_codes, target)
        pos = np.minimum(pos, n_cells - 1)
        hits = np.flatnonzero(unique_codes[pos] == target)
        for i in hits:
            j = int(pos[i])
            if uf.find(i) == uf.find(j):
                continue
            a_idx = order[bounds[i] : bounds[i + 1]]
            b_idx = order[bounds[j] : bounds[j + 1]]
            if _cells_connect(points, a_idx, b_idx, r2):
                uf.union(int(i), j)

    cell_root = np.fromiter(
        (uf.find(i) for i in range(n_cells)), dtype=np.int64, count=n_cells
    )
    point_cell = np.empty(n, dtype=np.int64)
    point_cell[order] = np.repeat(
        np.arange(n_cells, dtype=np.int64), np.diff(bounds)
    )
    return cell_root[point_cell]


def connected_components(points: np.ndarray, radius: float) -> List[List[int]]:
    """Fixed-radius transitive clustering via cell-level union-find."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n == 0:
        return []
    point_root = _cell_roots(points, radius)
    # Group point indices by root, vectorised: stable sort by root keeps
    # each group's indices ascending, then split at root boundaries.
    order = np.argsort(point_root, kind="stable")
    sorted_roots = point_root[order]
    starts = np.flatnonzero(np.diff(sorted_roots)) + 1
    components = [g.tolist() for g in np.split(order, starts)]
    components.sort(key=lambda c: (-len(c), c[0]))
    return components


def component_labels(points: np.ndarray, radius: float) -> np.ndarray:
    """Per-point component labels for fixed-radius transitive clustering.

    Labels are assigned in the same order :func:`connected_components`
    returns its groups (decreasing size, ties by smallest member index), so
    ``labels == k`` selects the ``k``-th largest component.  This is the
    allocation-light interface for callers that aggregate per component
    (e.g. profile centroids) and do not need explicit index lists.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    points = np.asarray(points, dtype=float)
    if len(points) == 0:
        return np.empty(0, dtype=np.int64)
    point_root = _cell_roots(points, radius)
    roots, inverse, counts = np.unique(
        point_root, return_inverse=True, return_counts=True
    )
    # Rank roots by (size desc, smallest member asc) to match the
    # connected_components ordering contract.
    first_member = np.full(len(roots), len(points), dtype=np.int64)
    np.minimum.at(first_member, inverse, np.arange(len(points), dtype=np.int64))
    order = np.lexsort((first_member, -counts))
    rank = np.empty(len(roots), dtype=np.int64)
    rank[order] = np.arange(len(roots), dtype=np.int64)
    return rank[inverse]


def _cells_connect(
    points: np.ndarray, a_idx: np.ndarray, b_idx: np.ndarray, r2: float
) -> bool:
    """Does any cross pair between two cells lie within the radius?

    Iterates over the smaller cell, vectorising against the larger one and
    exiting on the first hit — dense adjacent cells connect on the first
    probe, so the worst case only occurs for genuinely disconnected pairs.
    """
    if len(a_idx) > len(b_idx):
        a_idx, b_idx = b_idx, a_idx
    b_pts = points[b_idx]
    for i in a_idx:
        dx = b_pts[:, 0] - points[i, 0]
        dy = b_pts[:, 1] - points[i, 1]
        if ((dx * dx + dy * dy) <= r2).any():
            return True
    return False
