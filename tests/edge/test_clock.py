"""Unit tests for the measurement-time seam."""

import pytest

from repro.edge.clock import (
    DEFAULT_VIRTUAL_TICK,
    TimeSource,
    VirtualTimeSource,
    WallTimeSource,
)


class TestTimeSources:
    def test_base_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            TimeSource().monotonic()

    def test_wall_source_is_monotonic(self):
        source = WallTimeSource()
        readings = [source.monotonic() for _ in range(5)]
        assert readings == sorted(readings)

    def test_virtual_source_advances_one_tick_per_reading(self):
        source = VirtualTimeSource(tick=0.5)
        assert source.monotonic() == 0.5
        assert source.monotonic() == 1.0
        assert source.now == 1.0

    def test_virtual_durations_are_exact_at_any_offset(self):
        # The replay contract: the same k-reading measurement yields the
        # same bits no matter how far the source has already advanced.
        source = VirtualTimeSource()
        t0 = source.monotonic()
        early = source.monotonic() - t0
        for _ in range(1_000_003):
            source.monotonic()
        t0 = source.monotonic()
        late = source.monotonic() - t0
        assert early == late == DEFAULT_VIRTUAL_TICK

    def test_virtual_advance_adds_whole_ticks(self):
        source = VirtualTimeSource(tick=2.0)
        source.advance(3)
        assert source.now == 6.0
        with pytest.raises(ValueError):
            source.advance(-1)

    def test_negative_tick_rejected(self):
        with pytest.raises(ValueError):
            VirtualTimeSource(tick=-1.0)
