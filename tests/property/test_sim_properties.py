"""Property-based tests for the discrete-event queueing model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.queueing import simulate_edge_queue

rates = st.floats(min_value=1.0, max_value=2_000.0, allow_nan=False)
request_counts = st.integers(min_value=1, max_value=400)
worker_counts = st.integers(min_value=1, max_value=8)
service_medians = st.floats(min_value=1e-4, max_value=0.05, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestQueueInvariants:
    @given(rates, request_counts, worker_counts, service_medians, seeds)
    @settings(max_examples=40, deadline=None)
    def test_conservation_and_ordering(self, rate, n, workers, median, seed):
        stats = simulate_edge_queue(
            arrival_rate=rate,
            n_requests=n,
            n_workers=workers,
            service_time=lambda rng: float(rng.exponential(median)),
            seed=seed,
        )
        # Every request is served exactly once.
        assert stats.served == n
        # Waits and responses are consistent and non-negative.
        assert stats.mean_wait >= 0.0
        assert stats.mean_response >= stats.mean_wait
        assert 0.0 <= stats.p50_response <= stats.p95_response <= stats.p99_response
        # Utilisation is a physical fraction.
        assert 0.0 <= stats.utilization <= 1.0 + 1e-9
        assert stats.max_queue_len >= 0

    @given(rates, request_counts, service_medians, seeds)
    @settings(max_examples=30, deadline=None)
    def test_more_workers_never_hurt(self, rate, n, median, seed):
        def service(rng):
            return float(rng.exponential(median))

        few = simulate_edge_queue(rate, n, 1, service, seed=seed)
        many = simulate_edge_queue(rate, n, 8, service, seed=seed)
        # Same arrival/service draws differ by stream consumption order, so
        # compare with slack: massively more capacity must not massively
        # increase waiting.
        assert many.mean_wait <= few.mean_wait + median

    @given(request_counts, worker_counts, service_medians, seeds)
    @settings(max_examples=30, deadline=None)
    def test_deterministic_given_seed(self, n, workers, median, seed):
        def service(rng):
            return float(rng.exponential(median))

        a = simulate_edge_queue(100.0, n, workers, service, seed=seed)
        b = simulate_edge_queue(100.0, n, workers, service, seed=seed)
        assert a == b
