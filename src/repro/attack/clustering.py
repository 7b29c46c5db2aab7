"""Connectivity-based clustering (the attack's first stage).

Two check-ins are *connected* when their Euclidean distance is within a
threshold ``theta``; clusters are the transitive closure of connectivity
(Algorithm 1, line 2).  The heavy lifting is done by the uniform-grid
spatial index, so clustering a year of check-ins stays near-linear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.geo.index import component_labels
from repro.geo.index import connected_components as _connected_components
from repro.geo.point import Point

__all__ = [
    "Cluster",
    "connectivity_clusters",
    "largest_cluster",
    "largest_component_indices",
]


@dataclass(frozen=True)
class Cluster:
    """A cluster of check-in indices with its centroid cached."""

    indices: tuple
    centroid: Point

    @property
    def size(self) -> int:
        """Number of observations in the cluster."""
        return len(self.indices)


def _centroid_of(coords: np.ndarray) -> Point:
    cx, cy = coords.mean(axis=0)
    return Point(float(cx), float(cy))


def connectivity_clusters(coords: np.ndarray, theta: float) -> List[Cluster]:
    """Cluster an ``(n, 2)`` coordinate array at connectivity threshold ``theta``.

    Returns clusters sorted by decreasing size (ties broken by smallest
    member index), matching the attack's "largest cluster first" use.
    """
    coords = np.asarray(coords, dtype=float)
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    if coords.size == 0:
        return []
    clusters = []
    for component in _connected_components(coords, theta):
        clusters.append(
            Cluster(indices=tuple(component), centroid=_centroid_of(coords[component]))
        )
    return clusters


def largest_component_indices(coords: np.ndarray, theta: float) -> np.ndarray:
    """Member indices of the largest connectivity cluster, ascending.

    The columnar fast path of Algorithm 1's line 5: the attack only needs
    the winning cluster's members, so this skips materialising a
    :class:`Cluster` object (indices tuple + centroid) per component.
    Ties follow the :func:`connectivity_clusters` ordering — label 0 is
    the largest component, ties broken by smallest member index — so the
    returned indices equal ``connectivity_clusters(...)[0].indices``.
    Empty input yields an empty array.
    """
    coords = np.asarray(coords, dtype=float)
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    if coords.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(component_labels(coords, theta) == 0)


def largest_cluster(coords: np.ndarray, theta: float) -> Cluster:
    """The single largest connectivity cluster (Algorithm 1, line 5)."""
    clusters = connectivity_clusters(coords, theta)
    if not clusters:
        raise ValueError("cannot take the largest cluster of an empty point set")
    return clusters[0]
