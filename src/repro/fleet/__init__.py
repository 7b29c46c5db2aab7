"""``repro.fleet``: deterministic fault injection for the edge fleet.

The serving layer (:mod:`repro.serve`) runs per-user actors sharded
across worker processes; this package makes that fleet *breakable on
purpose*.  A :class:`Scenario` is a seeded, declarative program of
faults — device crashes (with or without persisted tables), restarts,
user-to-device handoffs, shard network partitions and heals, slow
devices — scheduled against positions on the global event timeline, so
the same scenario replays bit-identically at any ``--shards`` count and
on either execution backend.

The pieces:

* :mod:`repro.fleet.scenario` — the frozen event types, the
  :class:`Scenario` container (JSON/YAML round-trip, content hash), and
  the built-in churn/lossy-crash generators;
* :mod:`repro.fleet.runtime` — the per-shard engine that compiles a
  scenario into per-user fault timelines and applies crash / restore /
  handoff / slow-device effects around actor event handling;
* :mod:`repro.fleet.checkpoint` — the snapshot store actors park their
  state in across crashes (a flow-lint sink: snapshots carry true
  check-ins);
* :mod:`repro.fleet.audit` — the fleet-wide privacy-ledger
  reconciliation (gauges == audit bitwise; lost budget surfaced, never
  silent);
* :mod:`repro.fleet.harness` — ``run_fleet`` for the CLI, CI, and
  benchmarks.

See ``docs/fleet.md`` for the model and the replay guarantees.
"""

from repro.fleet.audit import FleetAudit, audit_fleet
from repro.fleet.checkpoint import CheckpointStore
from repro.fleet.harness import resolve_scenario, run_fleet
from repro.fleet.runtime import EventDisposition, FleetShardRuntime
from repro.fleet.scenario import (
    BUILTIN_SCENARIOS,
    DeviceCrash,
    DeviceRestart,
    NetworkHeal,
    NetworkPartition,
    Scenario,
    SlowShard,
    UserHandoff,
    builtin_scenario,
    churn_scenario,
    device_of,
)

__all__ = [
    "BUILTIN_SCENARIOS",
    "CheckpointStore",
    "DeviceCrash",
    "DeviceRestart",
    "EventDisposition",
    "FleetAudit",
    "FleetShardRuntime",
    "NetworkHeal",
    "NetworkPartition",
    "Scenario",
    "SlowShard",
    "UserHandoff",
    "audit_fleet",
    "builtin_scenario",
    "churn_scenario",
    "device_of",
    "resolve_scenario",
    "run_fleet",
]
