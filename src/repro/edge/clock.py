"""Monotonic time for the edge: an explicit, swappable measurement clock.

Instrumented edge code (pin latency, serve latency) needs a monotonic
reading; taking it straight from ``time.perf_counter()`` would make every
latency histogram depend on when and where the code ran.  A
:class:`TimeSource` makes the reading injectable: production paths use
:class:`WallTimeSource` (a thin ``perf_counter`` wrapper), while the
replay mode of :mod:`repro.serve` installs a :class:`VirtualTimeSource`
whose readings are a pure function of how many readings were taken —
so a ``--replay`` run's latency histograms are bit-identical no matter
the host, the shard count, or the scheduler.  Event time is not kept
here: it comes from the check-in timestamps themselves.
"""

from __future__ import annotations

import time

__all__ = [
    "TimeSource",
    "WallTimeSource",
    "VirtualTimeSource",
    "DEFAULT_VIRTUAL_TICK",
]

#: Seconds a :class:`VirtualTimeSource` advances per reading.  A power
#: of two (~0.95 us), so every ``count * tick`` product — and therefore
#: every paired ``t1 - t0`` duration — is an exact float64 no matter how
#: far the source has advanced.  A non-dyadic tick (say 1e-6) would make
#: the same k-tick duration round differently at different absolute
#: offsets, and replay histograms would stop being shard-count-invariant.
DEFAULT_VIRTUAL_TICK = 2.0 ** -20


class TimeSource:
    """A monotonic reading for latency measurement (the injectable seam).

    Subclasses override :meth:`monotonic`.  The base class doubles as the
    abstract interface; instrumented code should accept any
    :class:`TimeSource` and never call ``time.perf_counter()`` directly —
    that is what keeps replay-mode latency deterministic.
    """

    def monotonic(self) -> float:
        """A monotonically non-decreasing reading in seconds."""
        raise NotImplementedError


class WallTimeSource(TimeSource):
    """The production source: ``time.perf_counter()``."""

    __slots__ = ()

    def monotonic(self) -> float:
        """The process's high-resolution performance counter."""
        return time.perf_counter()


class VirtualTimeSource(TimeSource):
    """Deterministic monotonic time: every reading advances a fixed tick.

    A paired ``t1 - t0`` measurement with ``k - 1`` readings in between
    always yields exactly ``k * tick`` — the source counts readings as an
    integer and multiplies by the (power-of-two) tick on the way out, so
    durations never pick up accumulation error and are bit-identical at
    any absolute offset.  ``advance`` adds explicit whole ticks of
    virtual delay on top (e.g. modelling per-event service time).
    """

    __slots__ = ("_ticks", "tick")

    def __init__(self, tick: float = DEFAULT_VIRTUAL_TICK) -> None:
        if tick < 0:
            raise ValueError(f"tick must be non-negative, got {tick}")
        self._ticks = 0
        self.tick = float(tick)

    @property
    def now(self) -> float:
        """The current virtual reading (without advancing it)."""
        return self._ticks * self.tick

    def monotonic(self) -> float:
        """Advance by one tick and return the new reading."""
        self._ticks += 1
        return self._ticks * self.tick

    def advance(self, ticks: int) -> None:
        """Add ``ticks`` whole ticks of virtual delay (non-negative)."""
        if ticks < 0:
            raise ValueError("cannot advance by a negative duration")
        self._ticks += int(ticks)

    @property
    def ticks(self) -> int:
        """The integer reading count (the source's whole durable state)."""
        return self._ticks

    def seek(self, ticks: int) -> None:
        """Restore the reading count from a checkpoint (monotonic only).

        Used by shard checkpoint/restore: a shard rebuilt from a
        checkpoint must resume its virtual timeline exactly where the
        original left off, or every later latency reading — and hence the
        replay metrics digest — would shift.
        """
        if ticks < self._ticks:
            raise ValueError(
                f"virtual time cannot move backwards: {ticks} < {self._ticks}"
            )
        self._ticks = int(ticks)
