"""Unit tests for the edge queueing model."""

import pytest

from repro.sim.queueing import EdgeQueueModel, simulate_edge_queue


def constant_service(value):
    return lambda rng: value


class TestEdgeQueueModel:
    def test_all_requests_served(self):
        stats = simulate_edge_queue(
            arrival_rate=100.0,
            n_requests=500,
            n_workers=2,
            service_time=constant_service(0.005),
        )
        assert stats.served == 500

    def test_light_load_no_waiting(self):
        """Far below saturation, response ~= service time."""
        stats = simulate_edge_queue(
            arrival_rate=10.0,
            n_requests=2_000,
            n_workers=4,
            service_time=constant_service(0.001),
        )
        assert stats.mean_wait < 1e-4
        assert stats.mean_response == pytest.approx(0.001, rel=0.05)

    def test_overload_builds_queue(self):
        """Arrivals above capacity must queue and inflate response times."""
        stats = simulate_edge_queue(
            arrival_rate=2_000.0,  # capacity is 1 / 0.001 = 1,000 req/s
            n_requests=3_000,
            n_workers=1,
            service_time=constant_service(0.001),
        )
        assert stats.mean_wait > 0.01
        assert stats.max_queue_len > 100

    def test_utilization_matches_load(self):
        """rho = lambda * E[S] / c within sampling noise."""
        stats = simulate_edge_queue(
            arrival_rate=500.0,
            n_requests=20_000,
            n_workers=2,
            service_time=constant_service(0.002),
        )
        assert stats.utilization == pytest.approx(0.5, abs=0.05)

    def test_more_workers_cut_waits(self):
        common = dict(
            arrival_rate=800.0, n_requests=5_000,
            service_time=constant_service(0.002),
        )
        one = simulate_edge_queue(n_workers=1, seed=1, **common)
        four = simulate_edge_queue(n_workers=4, seed=1, **common)
        assert four.mean_wait < one.mean_wait

    def test_percentiles_ordered(self):
        stats = simulate_edge_queue(
            arrival_rate=400.0,
            n_requests=5_000,
            n_workers=2,
            service_time=lambda rng: float(rng.exponential(0.002)),
        )
        assert stats.p50_response <= stats.p95_response <= stats.p99_response

    def test_meets_deadline_api(self):
        stats = simulate_edge_queue(
            arrival_rate=10.0,
            n_requests=500,
            n_workers=4,
            service_time=constant_service(0.001),
        )
        assert stats.meets_deadline(0.1, "p99")
        assert not stats.meets_deadline(1e-6, "p50")

    def test_validation(self):
        model = EdgeQueueModel(1, constant_service(0.001))
        with pytest.raises(ValueError):
            model.run(arrival_rate=0.0, n_requests=10)
        with pytest.raises(ValueError):
            model.run(arrival_rate=1.0, n_requests=0)
        with pytest.raises(ValueError):
            EdgeQueueModel(0, constant_service(0.001))

    def test_negative_service_time_rejected(self):
        model = EdgeQueueModel(1, constant_service(-1.0))
        with pytest.raises(ValueError):
            model.run(arrival_rate=1.0, n_requests=1)

    def test_mm1_mean_wait_close_to_theory(self):
        """M/M/1 sanity: W_q = rho / (mu - lambda) at rho = 0.5."""
        lam, mu = 500.0, 1_000.0
        stats = simulate_edge_queue(
            arrival_rate=lam,
            n_requests=60_000,
            n_workers=1,
            service_time=lambda rng: float(rng.exponential(1.0 / mu)),
            seed=4,
        )
        expected_wq = (lam / mu) / (mu - lam)  # = 0.001 s
        assert stats.mean_wait == pytest.approx(expected_wq, rel=0.15)
