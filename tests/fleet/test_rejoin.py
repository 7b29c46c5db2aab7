"""The heal path's contract: a rejoined worker adopts the live inline shard.

A partition checkpoints the shard's worker and restores the state
inline in the parent; the matching heal forks a new worker that serves
that inline state as it stands.  Nothing is checkpointed or restored at
heal, the new worker freezes the heap it inherited, and the replay's
digests equal the inline run's.  Once the worker has forked, the parent
holds no reference to the inline state it adopted.
"""

import gc
import os
import weakref

import pytest

from repro.fleet import run_fleet
from repro.fleet.scenario import NetworkHeal, NetworkPartition, Scenario
from repro.serve.service import ServeService
from repro.serve.shard import ShardState

SCENARIO = Scenario(
    name="heal-adopt",
    n_devices=2,
    events=(NetworkPartition(at=20, shard=0), NetworkHeal(at=50, shard=0)),
)
RUN = dict(n_users=8, n_events=90, n_campaigns=20, seed=5, n_shards=1)


def _logged(log, name, fn):
    def wrapped(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{name} {os.getpid()}\n")
        return fn(*args, **kwargs)

    return wrapped


@pytest.fixture(scope="module")
def inline():
    return run_fleet(SCENARIO, use_processes=False, **RUN)


def test_heal_forks_the_live_shard(tmp_path, monkeypatch, inline):
    log = tmp_path / "calls.log"
    monkeypatch.setattr(
        ShardState, "checkpoint", _logged(log, "checkpoint", ShardState.checkpoint)
    )
    restore = vars(ShardState)["from_checkpoint"].__func__
    monkeypatch.setattr(
        ShardState,
        "from_checkpoint",
        classmethod(_logged(log, "from_checkpoint", restore)),
    )
    frozen = []
    rejoin = ServeService._rejoin

    async def probed_rejoin(self, backend, parent):
        await rejoin(self, backend, parent)
        if backend.executor is not None:
            frozen.append(backend.executor.submit(gc.get_freeze_count).result())

    monkeypatch.setattr(ServeService, "_rejoin", probed_rejoin)

    report = run_fleet(SCENARIO, use_processes=True, **RUN)
    if report.result.backend != "process":
        pytest.skip("worker processes unavailable in this sandbox")

    calls = [line.split() for line in log.read_text().splitlines()]
    parent = str(os.getpid())
    # One checkpoint, taken by the partitioned worker; one restore, by the
    # parent; nothing at heal.
    assert [name for name, _ in calls] == ["checkpoint", "from_checkpoint"]
    assert calls[0][1] != parent
    assert calls[1][1] == parent
    # The rejoined worker froze what it inherited.
    assert len(frozen) == 1
    assert frozen[0] > gc.get_freeze_count()
    assert report.digest == inline.digest
    assert report.metrics_digest() == inline.metrics_digest()
    assert report.audit.ok


def test_heal_releases_the_adopted_shard(monkeypatch, inline):
    released = []
    rejoin = ServeService._rejoin

    async def probed_rejoin(self, backend, parent):
        adopted = weakref.ref(backend.state)
        await rejoin(self, backend, parent)
        if backend.executor is not None:
            gc.collect()
            released.append(adopted() is None)

    monkeypatch.setattr(ServeService, "_rejoin", probed_rejoin)
    report = run_fleet(SCENARIO, use_processes=True, **RUN)
    if report.result.backend != "process":
        pytest.skip("worker processes unavailable in this sandbox")

    # The parent kept no reference to the inline shard the worker adopted.
    assert released == [True]
    assert report.digest == inline.digest
    assert report.metrics_digest() == inline.metrics_digest()
