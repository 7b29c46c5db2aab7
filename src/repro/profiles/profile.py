"""User location profiles (paper Eq. 2) and location entropy (Eq. 3).

A location profile is the set of ``(location, frequency)`` tuples obtained
by clustering a user's check-ins: check-ins within a connectivity threshold
(50 m in the paper) of each other belong to the same *location*, whose
coordinate is the cluster centroid and whose frequency is the cluster size.

The profile is stored column-wise (coordinate and frequency arrays sorted
by decreasing frequency); :class:`ProfileEntry` objects are materialised
lazily, so bulk consumers — the edge profiling thousands of users per
window, Algorithm 2 reading only a short prefix — never pay for
per-location object construction they don't use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.geo.index import component_labels
from repro.geo.point import Point
from repro.profiles.checkin import CheckIn, checkins_to_array

__all__ = [
    "ProfileEntry",
    "LocationProfile",
    "DEFAULT_CONNECT_RADIUS_M",
    "profiles_from_offsets",
]

#: The paper's connectivity threshold for raw check-ins (Section III-B-1).
DEFAULT_CONNECT_RADIUS_M = 50.0


@dataclass(frozen=True)
class ProfileEntry:
    """One clustered location with its visit frequency."""

    location: Point
    frequency: int

    def __post_init__(self) -> None:
        if self.frequency < 1:
            raise ValueError(f"frequency must be >= 1, got {self.frequency}")


class LocationProfile:
    """An ordered location profile ``P = {(l_1, f_1), ..., (l_M, f_M)}``.

    Entries are kept sorted by decreasing frequency (ties broken by
    coordinates for determinism), matching the ordered-sequence form that
    the eta-frequent-location-set algorithm (Algorithm 2) consumes.
    """

    def __init__(self, entries: Sequence[ProfileEntry] = ()) -> None:
        entries = list(entries)
        xs = np.asarray([e.location.x for e in entries], dtype=float)
        ys = np.asarray([e.location.y for e in entries], dtype=float)
        freqs = np.asarray([e.frequency for e in entries], dtype=np.int64)
        self._init_columns(xs, ys, freqs)

    def _init_columns(
        self, xs: np.ndarray, ys: np.ndarray, freqs: np.ndarray
    ) -> None:
        order = np.lexsort((ys, xs, -freqs))
        self._xs = xs[order]
        self._ys = ys[order]
        self._freqs = freqs[order]
        self._entry_cache: List[Optional[ProfileEntry]] = [None] * len(self._freqs)

    @classmethod
    def from_columns(
        cls, xs: np.ndarray, ys: np.ndarray, freqs: np.ndarray
    ) -> "LocationProfile":
        """A profile from per-location centroid and count columns (any order)."""
        profile = cls.__new__(cls)
        profile._init_columns(xs, ys, freqs)
        return profile

    @classmethod
    def from_checkins(
        cls,
        checkins: Sequence[CheckIn],
        connect_radius: float = DEFAULT_CONNECT_RADIUS_M,
    ) -> "LocationProfile":
        """Cluster check-ins into a profile by connectivity (Section III-B-1).

        Two check-ins are connected when their Euclidean distance is within
        ``connect_radius``; each connected component becomes one location
        with the component centroid as coordinate and the component size as
        frequency.
        """
        if not checkins:
            return cls()
        return cls.from_coords(checkins_to_array(checkins), connect_radius)

    @classmethod
    def from_coords(
        cls,
        coords: np.ndarray,
        connect_radius: float = DEFAULT_CONNECT_RADIUS_M,
    ) -> "LocationProfile":
        """Profile an ``(n, 2)`` coordinate array directly.

        The vectorised ingest path: per-component centroids come from one
        label aggregation (a bincount per axis) instead of a mean() call
        per component, which matters when an edge profiles thousands of
        users back to back.
        """
        coords = np.asarray(coords, dtype=float)
        if len(coords) == 0:
            return cls()
        labels = component_labels(coords, connect_radius)
        k = int(labels.max()) + 1
        counts = np.bincount(labels, minlength=k)
        cx = np.bincount(labels, weights=coords[:, 0], minlength=k) / counts
        cy = np.bincount(labels, weights=coords[:, 1], minlength=k) / counts
        return cls.from_columns(cx, cy, counts.astype(np.int64))

    @classmethod
    def from_xy(
        cls,
        xs: np.ndarray,
        ys: np.ndarray,
        connect_radius: float = DEFAULT_CONNECT_RADIUS_M,
    ) -> "LocationProfile":
        """Profile separate coordinate columns (the CSR-slice ingest path)."""
        xs = np.asarray(xs, dtype=float)
        if len(xs) == 0:
            return cls()
        return cls.from_coords(np.column_stack((xs, ys)), connect_radius)

    def _entry(self, i: int) -> ProfileEntry:
        cached = self._entry_cache[i]
        if cached is None:
            cached = ProfileEntry(
                Point(float(self._xs[i]), float(self._ys[i])),
                int(self._freqs[i]),
            )
            self._entry_cache[i] = cached
        return cached

    def __len__(self) -> int:
        return len(self._freqs)

    def __iter__(self) -> Iterator[ProfileEntry]:
        for i in range(len(self._freqs)):
            yield self._entry(i)

    def __getitem__(self, i: int) -> ProfileEntry:
        if not -len(self._freqs) <= i < len(self._freqs):
            raise IndexError(i)
        return self._entry(i % len(self._freqs) if i < 0 else i)

    def __bool__(self) -> bool:
        return len(self._freqs) > 0

    @property
    def entries(self) -> Tuple[ProfileEntry, ...]:
        """The profile's entries as a tuple."""
        return tuple(self)

    @property
    def xs(self) -> np.ndarray:
        """Location x coordinates in profile (decreasing-frequency) order."""
        return self._xs

    @property
    def ys(self) -> np.ndarray:
        """Location y coordinates in profile order."""
        return self._ys

    @property
    def counts(self) -> np.ndarray:
        """Visit counts (int64) in profile order — no float conversion."""
        return self._freqs

    @property
    def locations(self) -> List[Point]:
        """The entries' locations, in profile order."""
        return [e.location for e in self]

    @property
    def frequencies(self) -> np.ndarray:
        """Visit counts as a float array."""
        return self._freqs.astype(float)

    @property
    def total_checkins(self) -> int:
        """The ``sum`` term of Eq. 3 — total number of clustered check-ins."""
        return int(self._freqs.sum())

    def top(self, k: int) -> List[ProfileEntry]:
        """The ``k`` most frequent locations (fewer if the profile is small)."""
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        return [self._entry(i) for i in range(min(k, len(self._freqs)))]

    def entropy(self) -> float:
        """Location entropy (Eq. 3), in nats; 0 for empty profiles.

        Low entropy means the user's activity concentrates on few top
        locations — 88.8% of the paper's users fall below 2.
        """
        if not len(self._freqs):
            return 0.0
        freqs = self.frequencies
        total = freqs.sum()
        probs = freqs / total
        return float(-(probs * np.log(probs)).sum())

    def merged_with(self, other: "LocationProfile", merge_radius: float) -> "LocationProfile":
        """Merge two partial profiles, coalescing locations within ``merge_radius``.

        Users roam across edge devices, so each edge holds only a local
        part of the profile (Section V-B); this implements the profile
        union the paper delegates to an orthogonal MPC protocol.  Matching
        locations are combined with a frequency-weighted centroid.
        """
        combined: List[ProfileEntry] = list(self)
        for entry in other:
            match_idx = None
            for i, mine in enumerate(combined):
                if mine.location.distance_to(entry.location) <= merge_radius:
                    match_idx = i
                    break
            if match_idx is None:
                combined.append(entry)
            else:
                mine = combined[match_idx]
                total = mine.frequency + entry.frequency
                merged_loc = Point(
                    (mine.location.x * mine.frequency + entry.location.x * entry.frequency) / total,
                    (mine.location.y * mine.frequency + entry.location.y * entry.frequency) / total,
                )
                combined[match_idx] = ProfileEntry(merged_loc, total)
        return LocationProfile(combined)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        head = ", ".join(
            f"({x:.0f},{y:.0f})x{f}"
            for x, y, f in zip(self._xs[:3], self._ys[:3], self._freqs[:3])
        )
        suffix = ", ..." if len(self._freqs) > 3 else ""
        return f"LocationProfile[{len(self._freqs)} locations: {head}{suffix}]"


def profiles_from_offsets(
    xs: np.ndarray,
    ys: np.ndarray,
    offsets: np.ndarray,
    connect_radius: float = DEFAULT_CONNECT_RADIUS_M,
) -> List[LocationProfile]:
    """One profile per CSR row of ``(xs, ys, offsets)``.

    The bulk-ingest path for :class:`repro.data.columns.CheckInColumns`:
    each user's profile is built from a zero-copy slice of the flat
    columns, bit-identical to profiling that user's object trace.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    return [
        LocationProfile.from_xy(
            xs[offsets[i]:offsets[i + 1]],
            ys[offsets[i]:offsets[i + 1]],
            connect_radius,
        )
        for i in range(len(offsets) - 1)
    ]
