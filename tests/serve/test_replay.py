"""The replay-mode contract: bit-identical results at any shard count.

These are the service's headline invariants (see docs/serving.md):

* the sha256 response digest is identical for ``--shards 1/2/4``;
* the merged fleet metrics snapshot is bit-identical — including the
  float-valued gauges and histogram sums — at any shard count;
* the epsilon/delta budget gauges equal the ledger-entry audit exactly.
"""

import pytest

from repro.serve.egress import ServeResponse
from repro.serve.events import ServeWorkloadConfig, build_schedule
from repro.serve.harness import run_service
from repro.serve.service import ServeConfig, ServeService

WORKLOAD = dict(n_users=6, n_events=150, n_campaigns=40, seed=11)


def replay(n_shards, use_processes=False, **overrides):
    kwargs = dict(WORKLOAD)
    kwargs.update(overrides)
    return run_service(
        replay=True, n_shards=n_shards, use_processes=use_processes, **kwargs
    )


@pytest.fixture(scope="module")
def baseline():
    return replay(1)


class TestReplayDeterminism:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_digest_and_metrics_identical_across_shards(self, baseline, n_shards):
        result = replay(n_shards)
        assert result.digest == baseline.digest
        assert result.metrics == baseline.metrics
        assert result.metrics_digest() == baseline.metrics_digest()

    def test_rerun_is_bit_identical(self, baseline):
        assert replay(1).digest == baseline.digest

    def test_seed_changes_digest(self, baseline):
        assert replay(1, seed=12).digest != baseline.digest

    def test_all_events_processed_none_dropped(self, baseline):
        assert baseline.processed == WORKLOAD["n_events"]
        assert baseline.dropped == 0
        counters = baseline.metrics["counters"]
        assert counters["serve.events"] == WORKLOAD["n_events"]
        assert counters["serve.ingress.enqueued"] == WORKLOAD["n_events"]
        assert counters["serve.ingress.dropped"] == 0

    def test_responses_cover_schedule_in_seq_order(self, baseline):
        assert [r.seq for r in baseline.responses] == list(
            range(WORKLOAD["n_events"])
        )


class TestLedgerExactness:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_epsilon_gauge_equals_ledger_audit_exactly(self, n_shards):
        result = replay(n_shards)
        gauges = result.metrics["gauges"]
        assert result.ledger_spends > 0  # the workload actually pins
        assert gauges["privacy.epsilon_spent"] == result.audit_epsilon
        assert gauges["privacy.delta_spent"] == result.audit_delta
        assert gauges["privacy.epsilon_spent"] == pytest.approx(
            result.ledger_epsilon
        )
        assert result.metrics["counters"]["privacy.ledger_spends"] == (
            result.ledger_spends
        )


class TestProcessBackend:
    def test_process_backend_matches_inline(self, baseline):
        result = replay(2, use_processes=True)
        if result.backend != "process":
            pytest.skip("worker processes unavailable in this sandbox")
        assert result.digest == baseline.digest
        assert result.metrics == baseline.metrics


class TestVirtualLatency:
    def test_pin_histogram_is_deterministic(self, baseline):
        pin = baseline.metrics["histograms"]["edge.obfuscation.pin_seconds"]
        assert pin["count"] == baseline.ledger_spends
        again = replay(4)
        assert again.metrics["histograms"]["edge.obfuscation.pin_seconds"] == pin


class TestScheduleInjection:
    def test_prebuilt_schedule_round_trips(self):
        workload = ServeWorkloadConfig(**WORKLOAD)
        schedule = build_schedule(workload)
        config = ServeConfig(
            workload=workload, n_shards=2, replay=True, use_processes=False
        )
        a = ServeService(config, schedule=schedule).run()
        b = ServeService(config).run()
        assert a.digest == b.digest


class TestResultRepr:
    def test_run_never_formats_the_responses(self, monkeypatch):
        # At exit asyncio formats the main task's result into an error
        # message (SIGINT handler bookkeeping); reprlib swallows a raising
        # __repr__, so count the calls instead of waiting for the raise.
        calls = []

        def refuse(self):
            calls.append(self.seq)
            raise AssertionError("ServeResponse was formatted")

        monkeypatch.setattr(ServeResponse, "__repr__", refuse)
        result = replay(1)
        assert result.processed == WORKLOAD["n_events"]
        assert calls == []
        assert "responses" not in repr(result)
