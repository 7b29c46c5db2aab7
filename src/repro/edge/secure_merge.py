"""Secure multi-edge profile merging via additive secret sharing.

Users roam across edge devices, so each edge holds only a local fragment
of a user's location profile; Section V-B notes that merging the fragments
"can be accomplished through a secure multi-party computation protocol"
and leaves the protocol orthogonal.  We implement the standard simple
instantiation so the system is complete end to end:

* the user's activity area is rasterised onto a shared grid;
* each edge turns its local check-in counts into a per-cell histogram and
  splits every count into ``n_parties`` additive shares modulo a large
  prime — any strict subset of shares is uniformly random and reveals
  nothing about the count;
* aggregators sum the share vectors; only the reconstructed *sum* of all
  shares (the merged histogram) becomes visible;
* the merged eta-frequent location set is computed from the merged
  histogram.

The protocol is honest-but-curious secure: correctness and the
uniformity of strict share subsets are covered by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.geo.point import Point
from repro.profiles.checkin import CheckIn
from repro.profiles.profile import LocationProfile, ProfileEntry

__all__ = [
    "MODULUS",
    "GridSpec",
    "share_histogram",
    "reconstruct_histogram",
    "SecureProfileMerge",
]

#: A 61-bit Mersenne prime: large enough that realistic counts never wrap.
MODULUS = (1 << 61) - 1


@dataclass(frozen=True)
class GridSpec:
    """The shared rasterisation grid all parties agree on."""

    origin_x: float
    origin_y: float
    cell_size: float
    cells_x: int
    cells_y: int

    def __post_init__(self) -> None:
        if self.cell_size <= 0:
            raise ValueError("cell size must be positive")
        if self.cells_x < 1 or self.cells_y < 1:
            raise ValueError("grid must have at least one cell per axis")

    @property
    def n_cells(self) -> int:
        """Total number of grid cells."""
        return self.cells_x * self.cells_y

    def cell_of(self, p: Point) -> int:
        """Flat cell index of a point (clamped to the grid edges)."""
        ix = int((p.x - self.origin_x) // self.cell_size)
        iy = int((p.y - self.origin_y) // self.cell_size)
        ix = min(max(ix, 0), self.cells_x - 1)
        iy = min(max(iy, 0), self.cells_y - 1)
        return iy * self.cells_x + ix

    def center_of(self, cell: int) -> Point:
        """Planar centre of a flat cell index."""
        if not 0 <= cell < self.n_cells:
            raise ValueError(f"cell index out of range: {cell}")
        iy, ix = divmod(cell, self.cells_x)
        return Point(
            self.origin_x + (ix + 0.5) * self.cell_size,
            self.origin_y + (iy + 0.5) * self.cell_size,
        )

    def histogram(self, checkins: Sequence[CheckIn]) -> np.ndarray:
        """Per-cell check-in counts as an ``(n_cells,)`` int64 vector."""
        counts = np.zeros(self.n_cells, dtype=np.int64)
        for c in checkins:
            counts[self.cell_of(c.point)] += 1
        return counts


def share_histogram(
    counts: np.ndarray, n_parties: int, rng: np.random.Generator
) -> List[np.ndarray]:
    """Split a count vector into ``n_parties`` additive shares mod MODULUS.

    The first ``n_parties - 1`` shares are uniform in [0, MODULUS); the
    last is the modular complement, so any strict subset is independent of
    the secret.
    """
    if n_parties < 2:
        raise ValueError("secret sharing needs at least two parties")
    counts = np.asarray(counts, dtype=np.int64)
    if (counts < 0).any():
        raise ValueError("counts must be non-negative")
    if (counts >= MODULUS).any():
        raise ValueError("counts exceed the sharing modulus")
    shares = [
        rng.integers(0, MODULUS, size=counts.shape, dtype=np.int64)
        for _ in range(n_parties - 1)
    ]
    partial = np.zeros_like(counts)
    for s in shares:
        partial = (partial + s) % MODULUS
    last = (counts - partial) % MODULUS
    shares.append(last)
    return shares


def reconstruct_histogram(shares: Sequence[np.ndarray]) -> np.ndarray:
    """Sum share vectors mod MODULUS back into the plain counts."""
    if not shares:
        raise ValueError("no shares to reconstruct from")
    total = np.zeros_like(np.asarray(shares[0], dtype=np.int64))
    for s in shares:
        total = (total + np.asarray(s, dtype=np.int64)) % MODULUS
    return total


class SecureProfileMerge:
    """Coordinator for the multi-edge secure histogram aggregation.

    Each participating edge calls :meth:`contribute` with its local slice
    of a user's check-ins; the edge locally shares its histogram and sends
    share ``j`` to aggregator ``j``.  :meth:`merge` sums each aggregator's
    pool and reconstructs only the total histogram — individual edges'
    histograms never exist in the clear outside their owner.
    """

    def __init__(
        self,
        grid: GridSpec,
        n_aggregators: int = 3,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if n_aggregators < 2:
            raise ValueError("need at least two aggregators")
        self.grid = grid
        self.n_aggregators = n_aggregators
        # Seeded fallback keeps simulations reproducible; real deployments
        # must pass a Generator backed by OS entropy, since share blinding
        # is only hiding if the masks are unpredictable.
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._pools: List[np.ndarray] = [
            np.zeros(grid.n_cells, dtype=np.int64) for _ in range(n_aggregators)
        ]
        self.contributions = 0

    def contribute(self, local_checkins: Sequence[CheckIn]) -> None:
        """One edge contributes its local slice (shares only leave the edge)."""
        counts = self.grid.histogram(local_checkins)
        shares = share_histogram(counts, self.n_aggregators, self._rng)
        for pool, share in zip(self._pools, shares):
            np.copyto(pool, (pool + share) % MODULUS)
        self.contributions += 1

    def merge(self) -> np.ndarray:
        """Reconstruct the merged histogram from the aggregator pools."""
        return reconstruct_histogram(self._pools)

    def merged_profile(self) -> LocationProfile:
        """The merged histogram as a LocationProfile (cell centres)."""
        counts = self.merge()
        entries = [
            ProfileEntry(self.grid.center_of(int(i)), int(c))
            for i, c in enumerate(counts)
            if c > 0
        ]
        return LocationProfile(entries)
