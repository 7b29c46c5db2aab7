"""Operational edge features: budget caps and durable state.

Run with::

    python examples/edge_operations.py

Demonstrates the two production-facing extensions around the core
mechanism, both on the deployed per-user pipeline (:class:`UserActor`):

1. **Privacy budget ledger** — pinning obfuscations for changing top
   locations is capped; once the ledger is exhausted a new top stays on
   the nomadic path.
2. **Durable edge state** — the actor's snapshot (pinned table, ledger,
   RNG state) survives a restart as a JSON file, and the restored actor
   releases exactly what the live one does (re-randomising on restart
   would leak fresh noise to the longitudinal attacker).
"""

import json
import os
import tempfile

from repro.serve.actor import EdgeConfig, UserActor

DAY = 86_400.0
HOME, OFFICE, NEW_HOME = (0.0, 0.0), (3_200.0, 900.0), (9_000.0, 9_000.0)


def daily_checkins(days, places):
    """One check-in per place per day, in time order."""
    return [
        (day * DAY + hour * 3_600.0, x, y)
        for day in days
        for hour, (x, y) in zip((8, 18), places)
    ]


def main() -> None:
    config = EdgeConfig()
    # Each pin costs one epsilon: the cap allows exactly two pins.
    actor = UserActor("user-000007", 7, seed=7, config=config, ledger_max_epsilon=2.0)

    # --- 1. Budget-capped obfuscation -------------------------------------
    # Half a year between home and office pins both; after a move, the
    # new home becomes a third top that the ledger refuses.
    for t, x, y in daily_checkins(range(180), [HOME, OFFICE]):
        actor.handle_checkin(t, x, y)
    for t, x, y in daily_checkins(range(180, 300), [NEW_HOME, OFFICE]):
        actor.handle_checkin(t, x, y)
    module = actor.obfuscation
    print(
        f"ledger: spent eps={actor.ledger.total_epsilon:.1f} of "
        f"{actor.ledger.max_epsilon}, pins={module.obfuscation_count}, "
        f"refused by cap={module.skipped_by_ledger}"
    )
    _, path = actor.handle_checkin(300 * DAY, *NEW_HOME)
    print(f"a check-in at the new home is served on the {path} path")

    # --- 2. Durable edge state --------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        snapshot_path = os.path.join(tmp, "user-000007.json")
        with open(snapshot_path, "w", encoding="utf-8") as fh:
            json.dump(actor.snapshot(), fh)
        with open(snapshot_path, encoding="utf-8") as fh:
            restored = UserActor.from_snapshot(json.load(fh), config=config)
    upcoming = daily_checkins(range(301, 316), [NEW_HOME, OFFICE])
    live = [actor.handle_checkin(t, x, y) for t, x, y in upcoming]
    again = [restored.handle_checkin(t, x, y) for t, x, y in upcoming]
    print(
        f"\nsnapshot of {len(module.table)} pinned tops restored from JSON "
        f"(ledger cap eps={restored.ledger.max_epsilon}); next {len(upcoming)} "
        f"releases identical to the live actor: {live == again}"
    )
    print("(re-randomising after a restart would hand the longitudinal "
          "attacker fresh noise — the table must be durable)")


if __name__ == "__main__":
    main()
