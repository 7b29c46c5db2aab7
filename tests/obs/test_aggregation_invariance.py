"""Merged observability state must not depend on the worker count.

The pool captures each chunk's spans/metrics via ``collect()`` on both the
serial and the process-pool path and absorbs them in chunk-index order, so
float sums associate identically for any ``workers`` value — the merged
snapshot is bit-identical, not just approximately equal.
"""

import pytest

from repro import obs
from repro.core.ledger import PrivacyLedger
from repro.core.params import GeoIndBudget
from repro.edge.obfuscation import ObfuscationModule
from repro.geo.point import Point
from repro.parallel import parallel_map


def _metered_chunk(indices, rng):
    registry = obs.get_registry()
    registry.counter("test.items").inc(len(indices))
    hist = registry.histogram("test.values", (0.25, 0.5, 0.75))
    out = []
    for _ in indices:
        value = float(rng.uniform())
        hist.observe(value)
        registry.gauge("test.total").add(value)
        out.append(value)
    return out


def _run(workers):
    obs.enable()
    results = parallel_map(
        _metered_chunk, range(40), workers=workers, seed=123, chunk_size=5
    )
    return results, obs.shutdown()


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_snapshot_bit_identical_to_serial(self, workers):
        serial_results, serial_snapshot = _run(1)
        pooled_results, pooled_snapshot = _run(workers)
        assert pooled_results == serial_results
        # parallel.chunk_seconds is the pool's own wall-clock histogram and
        # process.peak_rss_bytes the pool's memory high-water mark — both
        # genuinely nondeterministic, so drop them; every metric the chunk
        # function emitted must merge bit-identically (dict equality
        # compares the float sums exactly, thanks to chunk-index-order
        # absorption).
        for snap in (serial_snapshot, pooled_snapshot):
            snap["histograms"].pop("parallel.chunk_seconds")
            snap["max_gauges"].pop("process.peak_rss_bytes")
        assert pooled_snapshot == serial_snapshot
        assert serial_snapshot["counters"]["test.items"] == 40
        assert serial_snapshot["histograms"]["test.values"]["count"] == 40

    def test_pool_counters_present(self):
        _, snapshot = _run(2)
        assert snapshot["counters"]["parallel.items"] == 40
        assert snapshot["counters"]["parallel.chunks"] == 8


class TestBudgetGauges:
    def test_gauges_track_ledger_sums_exactly(self):
        obs.enable()
        ledger = PrivacyLedger()
        for epsilon in (0.5, 1.0, 1.5):
            ledger.spend(GeoIndBudget(r=500.0, epsilon=epsilon, delta=0.01, n=10))
        snapshot = obs.shutdown()
        assert snapshot["gauges"]["privacy.epsilon_spent"] == ledger.total_epsilon
        assert snapshot["gauges"]["privacy.delta_spent"] == ledger.total_delta
        assert snapshot["counters"]["privacy.ledger_spends"] == ledger.spends

    def test_edge_pinning_feeds_ledger_gauges(self):
        """An edge run's spend gauge equals its ledger total, skips counted."""
        budget = GeoIndBudget(r=500.0, epsilon=1.0, delta=0.01, n=4)
        from repro.core.gaussian import NFoldGaussianMechanism

        obs.enable()
        ledger = PrivacyLedger(max_epsilon=2.5)
        module = ObfuscationModule(
            NFoldGaussianMechanism(budget), ledger=ledger
        )
        tops = [Point(x * 1_000.0, 0.0) for x in range(4)]
        module.ensure_obfuscated(tops)
        snapshot = obs.shutdown()
        # The cap admits two 1.0-epsilon pins; the other two are skipped.
        assert module.obfuscation_count == 2
        assert module.skipped_by_ledger == 2
        assert snapshot["gauges"]["privacy.epsilon_spent"] == ledger.total_epsilon
        assert snapshot["counters"]["edge.obfuscation.pins"] == 2
        assert snapshot["counters"]["edge.obfuscation.ledger_skips"] == 2
        assert snapshot["histograms"]["edge.obfuscation.pin_seconds"]["count"] == 2

    def test_ledger_untouched_when_disabled(self):
        ledger = PrivacyLedger()
        ledger.spend(GeoIndBudget(r=500.0, epsilon=1.0, delta=0.01, n=10))
        assert not obs.enabled()
        assert obs.get_registry().is_empty()


class TestDisabledOverheadPath:
    def test_parallel_map_meters_nothing_when_disabled(self):
        results = parallel_map(
            _metered_chunk, range(20), workers=1, seed=7, chunk_size=5
        )
        assert len(results) == 20
        # The pool's own metering is guarded by obs.enabled(); only the
        # unguarded writes of the test chunk function land in the registry.
        snapshot = obs.get_registry().snapshot()
        assert "parallel.chunks" not in snapshot["counters"]
        assert "parallel.chunk_seconds" not in snapshot["histograms"]

    def test_fig9_smoke_traced_rows_match_untraced(self, tmp_path):
        """Tracing must observe, never perturb: rows are bit-identical."""
        from repro.experiments import fig9_efficacy
        from repro.experiments.config import SMALL

        plain = fig9_efficacy.run(SMALL, ns=(1, 2), workers=1)
        obs.enable(str(tmp_path / "fig9.jsonl"))
        traced = fig9_efficacy.run(SMALL, ns=(1, 2), workers=1)
        snapshot = obs.shutdown()
        assert traced.rows == plain.rows
        assert snapshot["counters"]["parallel.chunks"] == 2
