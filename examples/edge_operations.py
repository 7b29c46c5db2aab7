"""Operational edge features: secure merging, budget caps, durable state.

Run with::

    python examples/edge_operations.py

Demonstrates the three production-facing extensions around the core
mechanism:

1. **Secure profile merging** — two edge devices each hold a fragment of a
   roaming user's check-ins; the merged profile is computed through
   additive secret sharing without either fragment appearing in the clear.
2. **Privacy budget ledger** — pinning obfuscations for changing top
   locations is capped; once the ledger is exhausted new tops stay on the
   nomadic path.
3. **Durable obfuscation table** — the pinned candidates survive a restart
   via JSON persistence (re-randomising on restart would leak).
"""

import tempfile

from repro.core import (
    GeoIndBudget,
    NFoldGaussianMechanism,
    PrivacyLedger,
    default_rng,
)
from repro.edge import GridSpec, ObfuscationModule, SecureProfileMerge
from repro.geo.point import Point
from repro.persist import load_json, save_json, table_from_json, table_to_json
from repro.profiles import CheckIn, eta_frequent_set


def main() -> None:
    rng = default_rng(7)

    # --- 1. Secure multi-edge profile merge -------------------------------
    grid = GridSpec(origin_x=-5_000, origin_y=-5_000, cell_size=100.0,
                    cells_x=100, cells_y=100)
    merger = SecureProfileMerge(grid, n_aggregators=3, rng=rng)

    home, office = Point(0.0, 0.0), Point(3_200.0, 900.0)
    edge_a_slice = [CheckIn(float(i), home) for i in range(120)]
    edge_b_slice = [CheckIn(1_000.0 + i, office) for i in range(60)]
    merger.contribute(edge_a_slice)   # edge A never reveals its counts
    merger.contribute(edge_b_slice)   # edge B never reveals its counts

    merged = merger.merged_profile()
    tops = eta_frequent_set(merged, 0.8)
    print(f"securely merged profile: {len(merged)} cells, "
          f"top locations covering 80%: {len(tops)}")
    for t in tops:
        print(f"  top at ({t.x:+7.1f}, {t.y:+7.1f})")

    # --- 2. Budget-capped obfuscation -------------------------------------
    budget = GeoIndBudget(r=500.0, epsilon=1.0, delta=0.01, n=10)
    mechanism = NFoldGaussianMechanism(budget, rng=rng)
    ledger = PrivacyLedger(max_epsilon=2.0)  # allows exactly two pins
    module = ObfuscationModule(mechanism, ledger=ledger)

    module.ensure_obfuscated(tops)  # spends for each merged top
    module.ensure_obfuscated([Point(9_000.0, 9_000.0)])  # a third new top
    print(
        f"\nledger: spent eps={ledger.total_epsilon:.1f} of "
        f"{ledger.max_epsilon}, pins={module.obfuscation_count}, "
        f"refused by cap={module.skipped_by_ledger}"
    )

    # --- 3. Durable obfuscation table -------------------------------------
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as f:
        path = f.name
    save_json(path, table_to_json(module.table))
    restored = table_from_json(load_json(path))
    same = all(
        restored.lookup(top) == module.table.lookup(top) for top in tops
    )
    print(f"\ntable persisted to {path} and restored intact: {same}")
    print("(re-randomising after a restart would hand the longitudinal "
          "attacker fresh noise — the table must be durable)")


if __name__ == "__main__":
    main()
