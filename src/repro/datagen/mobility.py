"""Per-user synthetic mobility model.

Each synthetic user has a small set of *top locations* (home, work place,
and up to two more routine spots) visited with fixed routine weights, plus
a *nomadic* component: one-off visits scattered around the city.  Check-in
timestamps follow a simple diurnal schedule — home-like locations at
night, work-like locations during weekday office hours — so single-user
plots resemble the paper's Figure 2 and time-window slicing behaves
naturally.

Check-in positions are the location anchor plus a small GPS jitter
(default 15 m), which is below the paper's 50 m clustering threshold, so
the profiling attack groups each top location into a single cluster, as it
does on the real data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.geo.bbox import BoundingBox
from repro.geo.point import Point
from repro.profiles.checkin import SECONDS_PER_DAY, CheckIn

__all__ = ["TopLocation", "MobilityModel"]


@dataclass(frozen=True)
class TopLocation:
    """One routine anchor with its visit share of routine activity."""

    point: Point
    weight: float
    kind: str = "other"  # "home" | "work" | "other"

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.kind not in ("home", "work", "other"):
            raise ValueError(f"unknown location kind: {self.kind}")


# Diurnal hour windows (start hour, end hour) per location kind; the hour
# is drawn uniformly inside a window chosen at random among the kind's
# windows.  "home" spans the evening-to-morning wrap.
_HOUR_WINDOWS = {
    "home": [(0.0, 8.0), (19.0, 24.0)],
    "work": [(9.0, 18.0)],
    "other": [(8.0, 23.0)],
}


@dataclass
class MobilityModel:
    """Generator of one user's check-in trace.

    Attributes:
        user_id: stable identifier (the ad-ecosystem device ID the
            longitudinal attacker keys on).
        top_locations: routine anchors, ordered by decreasing weight.
        nomadic_fraction: share of check-ins that are one-off visits.
        nomadic_radius_m: nomadic visits fall uniformly in this disc
            around home (bounded wandering, as in real urban traces).
        gps_noise_m: standard deviation of the per-check-in GPS jitter.
        region: optional clamp region for generated points.
    """

    user_id: str
    top_locations: List[TopLocation]
    nomadic_fraction: float = 0.05
    nomadic_radius_m: float = 8_000.0
    gps_noise_m: float = 15.0
    region: Optional[BoundingBox] = None

    def __post_init__(self) -> None:
        if not self.top_locations:
            raise ValueError("a user needs at least one top location")
        if not 0.0 <= self.nomadic_fraction < 1.0:
            raise ValueError(
                f"nomadic fraction must be in [0, 1), got {self.nomadic_fraction}"
            )
        if self.nomadic_radius_m <= 0:
            raise ValueError("nomadic radius must be positive")
        if self.gps_noise_m < 0:
            raise ValueError("gps noise must be non-negative")
        weights = [t.weight for t in self.top_locations]
        if sorted(weights, reverse=True) != weights:
            raise ValueError("top locations must be ordered by decreasing weight")

    @property
    def home(self) -> Point:
        """The highest-weight anchor (used as the nomadic wandering centre)."""
        return self.top_locations[0].point

    @property
    def true_top_points(self) -> List[Point]:
        """Ground-truth top locations, most frequent first."""
        return [t.point for t in self.top_locations]

    def generate(
        self,
        n_checkins: int,
        start_ts: float,
        days: float,
        rng: np.random.Generator,
    ) -> List[CheckIn]:
        """Draw a chronological trace of ``n_checkins`` over ``days`` days."""
        if n_checkins < 0:
            raise ValueError("n_checkins must be non-negative")
        if days <= 0:
            raise ValueError("days must be positive")
        if n_checkins == 0:
            return []

        weights = np.asarray([t.weight for t in self.top_locations], dtype=float)
        weights /= weights.sum()

        is_nomadic = rng.uniform(size=n_checkins) < self.nomadic_fraction
        anchor_idx = rng.choice(len(self.top_locations), size=n_checkins, p=weights)

        xs = np.empty(n_checkins)
        ys = np.empty(n_checkins)
        kinds: List[str] = []
        for i in range(n_checkins):
            if is_nomadic[i]:
                theta = rng.uniform(0.0, 2.0 * math.pi)
                rad = self.nomadic_radius_m * math.sqrt(rng.uniform())
                xs[i] = self.home.x + rad * math.cos(theta)
                ys[i] = self.home.y + rad * math.sin(theta)
                kinds.append("other")
            else:
                anchor = self.top_locations[int(anchor_idx[i])]
                xs[i] = anchor.point.x
                ys[i] = anchor.point.y
                kinds.append(anchor.kind)

        if self.gps_noise_m > 0:
            xs += rng.normal(0.0, self.gps_noise_m, n_checkins)
            ys += rng.normal(0.0, self.gps_noise_m, n_checkins)

        timestamps = self._draw_timestamps(kinds, start_ts, days, rng)

        checkins = []
        for i in range(n_checkins):
            p = Point(float(xs[i]), float(ys[i]))
            if self.region is not None:
                p = self.region.clamp(p)
            checkins.append(CheckIn(timestamp=float(timestamps[i]), point=p))
        checkins.sort()
        return checkins

    def _draw_timestamps(
        self,
        kinds: Sequence[str],
        start_ts: float,
        days: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        day_idx = rng.uniform(0.0, days, len(kinds))
        hours = np.empty(len(kinds))
        for i, kind in enumerate(kinds):
            windows = _HOUR_WINDOWS[kind]
            lo, hi = windows[int(rng.integers(len(windows)))]
            hours[i] = rng.uniform(lo, hi)
        return start_ts + np.floor(day_idx) * SECONDS_PER_DAY + hours * 3_600.0
