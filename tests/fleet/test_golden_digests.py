"""Golden digests of one small churn replay.

Shard-count invariance (``test_determinism``) cannot catch a change that
moves every topology alike.  These response and metrics digests were
recorded before the drain closed its trailing windows in one batched
kernel pass, and must hold at shards 1/2 on both backends.

The scenario covers every drain path: a persisted crash parked and
restored, a partition/heal round trip, a roaming user, a slow device, a
late lossy crash that destroys pinned ledgers (seats drained with no
actor), and a crash scheduled past the last event (applied at drain,
its snapshot revived there).
"""

import pytest

from repro.fleet import run_fleet
from repro.fleet.scenario import (
    DeviceCrash,
    DeviceRestart,
    NetworkHeal,
    NetworkPartition,
    Scenario,
    SlowShard,
    UserHandoff,
)
from repro.serve.events import workload_user_ids

N_USERS = 60
N_EVENTS = 600
USERS = workload_user_ids(N_USERS)

SCENARIO = Scenario(
    name="golden-drain",
    n_devices=4,
    events=(
        DeviceCrash(at=150, device=0, persist_tables=True),
        NetworkPartition(at=200, shard=0),
        DeviceRestart(at=220, device=0),
        UserHandoff(at=230, user=USERS[0], to_device=2),
        SlowShard(at=300, device=3, latency_s=0.002),
        NetworkHeal(at=400, shard=0),
        DeviceCrash(at=560, device=1, persist_tables=False),
        DeviceCrash(at=N_EVENTS + 10, device=2, persist_tables=True),
    ),
)

GOLDEN_RESPONSE = "e72b2e8e7553d66343d14ecf3cbf28dd62245d4eee27c3d97571e7c6d4be7b93"
GOLDEN_METRICS = "825638c04160d946f7bb05147f25ef8b24be77b6ed066a712af4e4590a6697a7"


@pytest.mark.parametrize("use_processes", [False, True], ids=["inline", "process"])
@pytest.mark.parametrize("n_shards", [1, 2])
def test_churn_replay_matches_golden_digests(n_shards, use_processes):
    report = run_fleet(
        SCENARIO,
        n_users=N_USERS,
        n_events=N_EVENTS,
        n_campaigns=50,
        seed=0,
        n_shards=n_shards,
        use_processes=use_processes,
    )
    counters = report.result.metrics["counters"]
    assert counters["ledger.lost_entries"] > 0
    assert counters["fleet.drain_restores"] > 0
    assert report.audit.ok, report.audit
    assert report.digest == GOLDEN_RESPONSE
    assert report.metrics_digest() == GOLDEN_METRICS
