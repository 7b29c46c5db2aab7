"""Backpressure: bounded queues shed, drops are counted, budget is safe.

The privacy half of the contract matters most: a shed event never
reaches an actor, so the ledger is never charged for it — load shedding
costs ad requests, not epsilon.
"""

import time

from repro.serve.harness import run_service
from repro.serve.ingress import BoundedIngressQueue

WORKLOAD = dict(n_users=6, n_events=300, n_campaigns=40, seed=11)


def saturated(**overrides):
    """A deterministically saturated live run: the whole stream arrives
    as one burst against a tiny queue, so almost everything sheds."""
    kwargs = dict(
        replay=False,
        n_shards=1,
        use_processes=False,
        queue_capacity=8,
        batch_max=8,
        producer_burst=WORKLOAD["n_events"],
        **WORKLOAD,
    )
    kwargs.update(overrides)
    return run_service(**kwargs)


class TestShedding:
    def test_queue_saturates_and_drops_are_counted(self):
        result = saturated()
        assert result.dropped > 0
        assert result.processed + result.dropped == WORKLOAD["n_events"]
        counters = result.metrics["counters"]
        assert counters["serve.ingress.dropped"] == result.dropped
        assert counters["serve.ingress.enqueued"] == result.enqueued
        assert counters["serve.events"] == result.processed
        assert result.shard_stats[0]["high_water"] <= 8

    def test_ledger_never_charged_for_shed_events(self):
        result = saturated()
        # Every ledger entry is attributable to a processed event or a
        # finalize flush; the audit walks exactly those entries, and the
        # gauge equals it — nothing was charged for the shed events.
        gauges = result.metrics["gauges"]
        assert gauges.get("privacy.epsilon_spent", 0.0) == result.audit_epsilon
        assert gauges.get("privacy.delta_spent", 0.0) == result.audit_delta
        # The longitudinal accountant too: one observation per *served*
        # nomadic release, never one for a shed event.
        nomadic = result.metrics["counters"].get("serve.path.nomadic", 0)
        observed = result.metrics["counters"].get(
            "privacy.longitudinal_observations", 0
        )
        assert observed == nomadic <= result.processed

    def test_unsaturated_run_sheds_nothing(self):
        result = saturated(producer_burst=1, queue_capacity=512)
        assert result.dropped == 0
        assert result.processed == WORKLOAD["n_events"]

    def test_shedding_reduces_budget_spend(self):
        shed = saturated()
        full = saturated(producer_burst=1, queue_capacity=512)
        assert shed.processed < full.processed
        obs_shed = shed.metrics["counters"].get(
            "privacy.longitudinal_observations", 0
        )
        obs_full = full.metrics["counters"]["privacy.longitudinal_observations"]
        assert obs_shed < obs_full


class TestStallRecovery:
    def test_paced_producer_catches_up_after_a_stall_without_shedding(
        self, monkeypatch
    ):
        # Block the event loop for 200 ms mid-run, as a gen-2 GC pause
        # does: at 400 events/s (far below capacity) 80 events fall
        # overdue, five times the queue.  Offering them without yielding
        # would shed most of them.
        offer = BoundedIngressQueue.offer

        def stalling_offer(queue, item):
            if item == 100:
                time.sleep(0.2)
            return offer(queue, item)

        monkeypatch.setattr(BoundedIngressQueue, "offer", stalling_offer)
        result = run_service(
            replay=False,
            n_shards=1,
            use_processes=False,
            queue_capacity=16,
            batch_max=8,
            qps=400.0,
            **WORKLOAD,
        )
        assert result.dropped == 0
        assert result.processed == WORKLOAD["n_events"]
