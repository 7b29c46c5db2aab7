"""Time-window management for periodic profile recomputation.

The location management module rebuilds the top-location set once per
configurable time window (the paper's evaluation uses three months),
because users occasionally change their top locations.  This module keeps
the windowing logic out of the edge device: it buffers check-ins, detects
window boundaries on the simulation timeline, and emits per-window
profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.geo.point import Point
from repro.profiles.checkin import SECONDS_PER_DAY, CheckIn
from repro.profiles.profile import DEFAULT_CONNECT_RADIUS_M, LocationProfile

__all__ = ["WindowedProfileBuilder", "WindowResult", "DEFAULT_WINDOW_DAYS"]

#: The paper's evaluation recomputes profiles every three months.
DEFAULT_WINDOW_DAYS = 90.0


@dataclass
class WindowResult:
    """The profile computed when a time window closed."""

    window_start: float
    window_end: float
    profile: LocationProfile


@dataclass
class WindowedProfileBuilder:
    """Accumulate check-ins and emit a profile at each window boundary.

    ``add`` returns a :class:`WindowResult` when the incoming check-in's
    timestamp crosses the current window's end (possibly skipping empty
    windows), otherwise ``None``.  ``take_pending`` hands the trailing
    partial window's check-ins over unprofiled, so a drain can profile
    every user's trailing window in one population pass.
    """

    window_seconds: float = DEFAULT_WINDOW_DAYS * SECONDS_PER_DAY
    connect_radius: float = DEFAULT_CONNECT_RADIUS_M
    _buffer: List[CheckIn] = field(default_factory=list)
    _window_start: Optional[float] = None

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise ValueError(f"window must be positive, got {self.window_seconds}")
        if self.connect_radius <= 0:
            raise ValueError(f"connect radius must be positive, got {self.connect_radius}")

    @property
    def pending(self) -> int:
        """Check-ins buffered in the currently open window."""
        return len(self._buffer)

    def add(self, checkin: CheckIn) -> Optional[WindowResult]:
        """Feed one check-in; emits the previous window's profile on rollover.

        Check-ins must arrive in non-decreasing timestamp order, which the
        simulation guarantees.
        """
        if self._window_start is None:
            self._window_start = checkin.timestamp
        if self._buffer and checkin.timestamp < self._buffer[-1].timestamp:
            raise ValueError("check-ins must be fed in chronological order")
        result: Optional[WindowResult] = None
        window_end = self._window_start + self.window_seconds
        if checkin.timestamp >= window_end:
            result = self._close_window(window_end)
            # Fast-forward the window start over any empty gap.
            gap = checkin.timestamp - self._window_start
            skipped = int(gap // self.window_seconds)
            self._window_start += skipped * self.window_seconds
        self._buffer.append(checkin)
        return result

    def take_pending(self) -> List[CheckIn]:
        """Take the open window's check-ins and leave the window empty."""
        taken, self._buffer = self._buffer, []
        return taken

    def snapshot(self) -> Dict[str, Any]:
        """The builder's open-window state as JSON-able primitives.

        Captures the buffered check-ins and the window origin, which is
        everything a crashed edge device needs to resume windowing exactly
        where it left off (closed windows already left as profiles).
        """
        return {
            "window_seconds": self.window_seconds,
            "connect_radius": self.connect_radius,
            "window_start": self._window_start,
            "buffer": [[c.timestamp, c.point.x, c.point.y] for c in self._buffer],
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Reload the open-window state from :meth:`snapshot` output."""
        self._window_start = (
            None if state["window_start"] is None else float(state["window_start"])
        )
        self._buffer = [
            CheckIn(float(ts), Point(float(x), float(y)))
            for ts, x, y in state.get("buffer", [])
        ]

    def _close_window(self, window_end: float) -> WindowResult:
        profile = LocationProfile.from_checkins(self._buffer, self.connect_radius)
        result = WindowResult(
            window_start=float(self._window_start),
            window_end=float(window_end),
            profile=profile,
        )
        self._buffer.clear()
        return result
