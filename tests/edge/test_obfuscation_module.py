"""Unit tests for the obfuscation table and module (permanence guarantee)."""

import json

import pytest

from repro.core.gaussian import NFoldGaussianMechanism
from repro.core.mechanism import default_rng
from repro.edge.obfuscation import ObfuscationModule, ObfuscationTable
from repro.geo.point import Point


class TestObfuscationTable:
    def test_lookup_miss(self):
        assert ObfuscationTable().lookup(Point(0, 0)) is None

    def test_pin_and_lookup(self):
        table = ObfuscationTable()
        cands = [Point(1, 1), Point(2, 2)]
        table.pin(Point(0, 0), cands)
        assert table.lookup(Point(0, 0)) == cands

    def test_lookup_tolerates_centroid_drift(self):
        table = ObfuscationTable(match_radius=100.0)
        table.pin(Point(0, 0), [Point(1, 1)])
        assert table.lookup(Point(50, 0)) is not None
        assert table.lookup(Point(200, 0)) is None

    def test_lookup_prefers_nearest_entry(self):
        table = ObfuscationTable(match_radius=100.0)
        table.pin(Point(0, 0), [Point(10, 10)])
        table.pin(Point(150, 0), [Point(20, 20)])
        assert table.lookup(Point(140, 0)) == [Point(20, 20)]

    def test_double_pin_rejected(self):
        """Permanent entries must never be overwritten (privacy!)."""
        table = ObfuscationTable()
        table.pin(Point(0, 0), [Point(1, 1)])
        with pytest.raises(ValueError):
            table.pin(Point(10, 0), [Point(2, 2)])

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            ObfuscationTable().pin(Point(0, 0), [])

    def test_bad_match_radius(self):
        with pytest.raises(ValueError):
            ObfuscationTable(match_radius=0.0)


class TestObfuscationModule:
    def _module(self, paper_budget):
        mech = NFoldGaussianMechanism(paper_budget, rng=default_rng(0))
        return ObfuscationModule(mech, match_radius=100.0)

    def test_ensure_obfuscated_pins_new_tops(self, paper_budget):
        module = self._module(paper_budget)
        module.ensure_obfuscated([Point(0, 0), Point(10_000, 0)])
        assert module.obfuscation_count == 2
        assert len(module.table) == 2

    def test_permanence_no_budget_respent(self, paper_budget):
        """Re-presenting the same top location must not re-randomise."""
        module = self._module(paper_budget)
        module.ensure_obfuscated([Point(0, 0)])
        first = module.candidates_for(Point(0, 0))
        module.ensure_obfuscated([Point(0, 0)])
        module.ensure_obfuscated([Point(30, 0)])  # drifted centroid
        assert module.obfuscation_count == 1
        assert module.candidates_for(Point(0, 0)) == first

    def test_candidates_for_unknown_location(self, paper_budget):
        module = self._module(paper_budget)
        assert module.candidates_for(Point(0, 0)) is None

    def test_candidate_count_matches_mechanism(self, paper_budget):
        module = self._module(paper_budget)
        module.ensure_obfuscated([Point(0, 0)])
        assert len(module.candidates_for(Point(0, 0))) == 10


class TestSnapshotRoundtrip:
    """The table's durable form: module snapshot → JSON text → restore."""

    def _roundtrip(self, module):
        restored = ObfuscationModule(module.mechanism, match_radius=module.table.match_radius)
        restored.restore(json.loads(json.dumps(module.snapshot())))
        return restored

    def test_roundtrip_preserves_pins(self, paper_budget):
        mech = NFoldGaussianMechanism(paper_budget, rng=default_rng(0))
        module = ObfuscationModule(mech, match_radius=120.0)
        tops = [Point(100.0, 200.0), Point(5_000.0, -300.0), Point(330.0, 200.0)]
        module.ensure_obfuscated(tops)
        restored = self._roundtrip(module)
        assert restored.table.entries == module.table.entries  # pin order too
        assert restored.obfuscation_count == module.obfuscation_count == 3
        # (215, 200) is equidistant from two pins: lookup breaks the tie on
        # pin order, so a reordered restore would answer differently.
        for query in tops + [Point(215.0, 200.0), Point(0.0, 0.0), Point(9e3, 0.0)]:
            assert restored.candidates_for(query) == module.candidates_for(query)

    def test_restored_table_still_permanent(self, paper_budget):
        module = ObfuscationModule(NFoldGaussianMechanism(paper_budget))
        module.table.pin(Point(0, 0), [Point(1, 1)])
        restored = self._roundtrip(module)
        with pytest.raises(ValueError):
            restored.table.pin(Point(10, 0), [Point(2, 2)])
