"""Unit tests for the latency-sweep study."""

import numpy as np
import pytest

from repro.sim.latency import (
    latency_sweep,
    lognormal_service,
    measure_selection_service_time,
)


class TestLognormalService:
    def test_median_matches(self, rng):
        service = lognormal_service(0.01, sigma=0.5)
        draws = np.array([service(rng) for _ in range(20_000)])
        assert np.median(draws) == pytest.approx(0.01, rel=0.05)

    def test_floor_added(self, rng):
        service = lognormal_service(0.01, sigma=0.1, floor_s=0.5)
        assert service(rng) > 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            lognormal_service(0.0)
        with pytest.raises(ValueError):
            lognormal_service(0.01, sigma=-1.0)


class TestMeasureServiceTime:
    def test_positive_and_small(self):
        t = measure_selection_service_time(samples=200)
        assert 0.0 < t < 0.05  # selection is tens of microseconds


class TestLatencySweep:
    def test_latency_grows_with_load(self):
        points = latency_sweep(
            arrival_rates=[50.0, 400.0],
            service_median_s=0.002,
            n_workers=1,
            n_requests=4_000,
        )
        assert points[1].stats.p99_response >= points[0].stats.p99_response

    def test_light_load_meets_rtb_deadline(self):
        points = latency_sweep(
            arrival_rates=[50.0],
            service_median_s=0.002,
            n_workers=4,
            n_requests=4_000,
        )
        assert points[0].meets_rtb_deadline

    def test_saturation_violates_deadline(self):
        points = latency_sweep(
            arrival_rates=[5_000.0],  # far past 1/0.002 = 500 req/s/worker
            service_median_s=0.002,
            n_workers=1,
            n_requests=4_000,
        )
        assert not points[0].meets_rtb_deadline
        assert points[0].stats.utilization > 0.9
