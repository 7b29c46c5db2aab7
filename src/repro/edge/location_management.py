"""The location management module (paper Section V-B).

Collects a user's check-ins passively as LBA requests arrive, and at each
time-window boundary recomputes the user's location profile and its
eta-frequent location set — the top locations that the obfuscation module
must (permanently) obfuscate.

A window closes on rollover (inside :meth:`LocationManagementModule.record`,
one user at a time) or at drain, where :func:`flush_trailing_windows`
closes every user's trailing window in one population kernel pass.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.geo.point import Point
from repro.kernels.frequent import population_eta_tops
from repro.kernels.profiles import population_profiles
from repro.profiles.checkin import SECONDS_PER_DAY, CheckIn
from repro.profiles.frequent import eta_frequent_set
from repro.profiles.profile import DEFAULT_CONNECT_RADIUS_M, LocationProfile
from repro.profiles.windows import DEFAULT_WINDOW_DAYS, WindowedProfileBuilder

__all__ = ["LocationManagementModule", "DEFAULT_ETA", "flush_trailing_windows"]

#: Default frequent-set threshold: top locations covering 80 % of activity.
DEFAULT_ETA = 0.8


class LocationManagementModule:
    """Per-user profile manager feeding the obfuscation module.

    ``record`` ingests one check-in and returns the *new* top locations
    when a window just closed (None otherwise).  The module keeps the
    latest profile and top-location set queryable at any time.
    """

    def __init__(
        self,
        eta: float = DEFAULT_ETA,
        window_days: float = DEFAULT_WINDOW_DAYS,
        connect_radius: float = DEFAULT_CONNECT_RADIUS_M,
    ) -> None:
        if eta <= 0:
            raise ValueError(f"eta must be positive, got {eta}")
        self.eta = eta
        self._builder = WindowedProfileBuilder(
            window_seconds=window_days * SECONDS_PER_DAY,
            connect_radius=connect_radius,
        )
        self._profile: Optional[LocationProfile] = None
        self._top_locations: List[Point] = []
        self.windows_closed = 0
        #: Per-window top-location history, for drift inspection: how a
        #: user's eta-frequent set evolved across recomputation windows.
        self.top_history: List[List[Point]] = []

    @property
    def profile(self) -> Optional[LocationProfile]:
        """The most recent per-window profile (None before the first window)."""
        return self._profile

    @property
    def top_locations(self) -> List[Point]:
        """The current eta-frequent location set."""
        return list(self._top_locations)

    def record(self, checkin: CheckIn) -> Optional[List[Point]]:
        """Ingest a check-in; returns fresh top locations on window rollover."""
        result = self._builder.add(checkin)
        if result is None:
            return None
        profile = result.profile
        return self.close_window(profile, eta_frequent_set(profile, self.eta))

    def close_window(self, profile: LocationProfile, tops: List[Point]) -> List[Point]:
        """Adopt a closed window's profile and eta-frequent set ``tops``."""
        self.windows_closed += 1
        self._profile = profile
        self._top_locations = list(tops)
        self.top_history.append(list(tops))
        return list(tops)

    def snapshot(self) -> Dict[str, Any]:
        """Durable per-user profile state as JSON-able primitives.

        Carries the open profile window (buffered check-ins) and the
        current eta-frequent set with its history.  The per-window
        :class:`LocationProfile` itself is *not* serialized — it is a
        derived artifact, recomputed at the next window rollover — so a
        restored module reports ``profile is None`` until then.
        """
        return {
            "eta": self.eta,
            "builder": self._builder.snapshot(),
            "top_locations": [[p.x, p.y] for p in self._top_locations],
            "windows_closed": self.windows_closed,
            "top_history": [
                [[p.x, p.y] for p in tops] for tops in self.top_history
            ],
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Reload profile state from :meth:`snapshot` output."""
        self._builder.restore(state["builder"])
        self._profile = None
        self._top_locations = [
            Point(float(x), float(y)) for x, y in state.get("top_locations", [])
        ]
        self.windows_closed = int(state.get("windows_closed", 0))
        self.top_history = [
            [Point(float(x), float(y)) for x, y in tops]
            for tops in state.get("top_history", [])
        ]

    def is_top_location(self, location: Point, match_radius: float) -> bool:
        """Is ``location`` within ``match_radius`` of a current top location?"""
        return any(
            top.distance_to(location) <= match_radius for top in self._top_locations
        )


def flush_trailing_windows(
    modules: Sequence[LocationManagementModule],
) -> List[Optional[List[Point]]]:
    """Close every module's trailing window in one population kernel pass.

    Each module's open window is taken, all of them are profiled together
    by :func:`~repro.kernels.profiles.population_profiles` and
    :func:`~repro.kernels.frequent.population_eta_tops` — bit-identical
    to ``LocationProfile.from_checkins`` + ``eta_frequent_set`` per
    window — and each module closes its window from its own slice.
    Returns each module's fresh top locations, or None where the window
    was empty.  The modules must share one eta and connect radius.
    """
    if len({(m.eta, m._builder.connect_radius) for m in modules}) > 1:
        raise ValueError("modules must share one eta and connect radius")
    windows = [m._builder.take_pending() for m in modules]
    offsets = np.zeros(len(windows) + 1, dtype=np.int64)
    np.cumsum([len(w) for w in windows], out=offsets[1:])
    n = int(offsets[-1])
    if n == 0:
        return [None] * len(modules)
    xs = np.fromiter((c.point.x for w in windows for c in w), dtype=float, count=n)
    ys = np.fromiter((c.point.y for w in windows for c in w), dtype=float, count=n)
    eta, radius = modules[0].eta, modules[0]._builder.connect_radius
    profiles = population_profiles(xs, ys, offsets, radius)
    top_xs, top_ys, top_offsets = (a.tolist() for a in population_eta_tops(profiles, eta))
    closed: List[Optional[List[Point]]] = []
    for i, module in enumerate(modules):
        if not windows[i]:
            closed.append(None)
            continue
        rows = profiles.user_slice(i)
        profile = LocationProfile.from_columns(
            profiles.xs[rows], profiles.ys[rows], profiles.counts[rows]
        )
        first, last = top_offsets[i], top_offsets[i + 1]
        tops = [Point(x, y) for x, y in zip(top_xs[first:last], top_ys[first:last])]
        closed.append(module.close_window(profile, tops))
    return closed
