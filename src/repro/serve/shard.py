"""Shard workers: the per-shard actor table and its processing loop.

A shard owns every :class:`~repro.serve.actor.UserActor` whose user id
hashes to it (:func:`~repro.serve.events.shard_of_user`) and processes
that subset of the event stream strictly in arrival order.  The same
:class:`ShardState` runs in three places — a dedicated worker process
(the production layout, one single-worker executor per shard so actor
affinity is guaranteed), an executor thread, or inline in the parent —
and produces bit-identical replay results in all three because nothing
it computes depends on wall time or process identity.

Observability is captured with :func:`repro.obs.trace.collect`, which
swaps in a fresh registry, so shard workers meter unconditionally and
the service merges the buffered snapshots parent-side:

* **replay mode** collects *per event*, and the service merges the
  per-event snapshots in global ``seq`` order — the float sums are
  accumulated in one canonical association no matter how many shards the
  events came from, which is what makes the merged metrics snapshot (and
  the epsilon/delta gauge audit) bit-identical across shard counts;
* **live mode** collects per batch — cheaper, and ordering guarantees
  are not part of the live contract.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.ads.campaign import seed_campaigns
from repro.ads.delivery import filter_ads_to_aoi
from repro.ads.network import AdNetwork
from repro.edge.clock import (
    DEFAULT_VIRTUAL_TICK,
    TimeSource,
    VirtualTimeSource,
    WallTimeSource,
)
from repro.datagen.shanghai import shanghai_planar_bbox
from repro.fleet.runtime import FleetShardRuntime
from repro.fleet.scenario import Scenario
from repro.obs import trace
from repro.obs.metrics import Snapshot
from repro.parallel.shared import import_payload
from repro.serve.actor import EdgeConfig, UserActor
from repro.serve.egress import ServeResponse, build_response
from repro.serve.events import EventSchedule, shard_of_user

__all__ = [
    "ActorFinalize",
    "BatchResult",
    "ShardSpec",
    "ShardState",
]

#: One ledger charge as ``(epsilon, delta)``.
Charge = Tuple[float, float]


@dataclass(frozen=True)
class ShardSpec:
    """Everything a shard worker needs to build its state (picklable)."""

    shard_id: int
    n_shards: int
    seed: int
    edge: EdgeConfig = EdgeConfig()
    n_campaigns: int = 200
    campaign_radius_m: float = 5_000.0
    replay: bool = False
    virtual_tick: float = DEFAULT_VIRTUAL_TICK
    #: Optional per-user epsilon cap enforced by each actor's ledger.
    ledger_max_epsilon: Optional[float] = None
    #: Test knob: sleep this long per event so a slow consumer can be
    #: provoked deterministically in backpressure tests.
    work_sleep_s: float = 0.0
    #: Optional fault-injection program (see :mod:`repro.fleet`): device
    #: crashes, restarts, handoffs, and slow devices applied on the
    #: deterministic event timeline inside this shard.
    scenario: Optional[Scenario] = None
    #: When set, the fleet checkpoint store mirrors actor snapshots to
    #: JSON files under this directory.
    checkpoint_dir: Optional[str] = None


@dataclass
class BatchResult:
    """What one ``process(batch)`` call hands back to the service."""

    shard_id: int
    responses: List[ServeResponse] = field(default_factory=list)
    #: ``(seq, snapshot)`` per event in replay mode; one ``(-1,
    #: snapshot)`` for the whole batch in live mode.
    observations: List[Tuple[int, Snapshot]] = field(default_factory=list)
    #: ``(seq, charges)``: the ledger entries each event appended.
    charges: List[Tuple[int, List[Charge]]] = field(default_factory=list)


@dataclass
class ActorFinalize:
    """One actor's graceful-drain summary (flush + final accounting)."""

    user_index: int
    metrics: Snapshot
    charges: List[Charge]
    events_handled: int
    ledger_epsilon: float
    ledger_delta: float
    ledger_spends: int


class ShardState:
    """The live state of one shard: its actors plus its ad-network view.

    Every shard builds the *same* campaign inventory from the same seed —
    the ad network is global infrastructure, not per-shard state — so a
    user's auction outcome does not depend on where their actor lives.
    """

    def __init__(self, spec: ShardSpec, schedule: EventSchedule) -> None:
        self.spec = spec
        self.schedule = schedule
        self.time_source: TimeSource = (
            VirtualTimeSource(tick=spec.virtual_tick)
            if spec.replay
            else WallTimeSource()
        )
        self.network = AdNetwork()
        self.network.register_campaigns(
            seed_campaigns(
                shanghai_planar_bbox(),
                spec.n_campaigns,
                spec.campaign_radius_m,
                np.random.default_rng(spec.seed),
            )
        )
        self.actors: Dict[int, UserActor] = {}
        self.fleet: Optional[FleetShardRuntime] = None
        if spec.scenario is not None:
            user_ids = list(self.schedule.user_ids)
            self.fleet = FleetShardRuntime(
                spec.scenario,
                user_ids,
                self.time_source,
                checkpoint_dir=spec.checkpoint_dir,
                owned=[
                    i
                    for i, uid in enumerate(user_ids)
                    if shard_of_user(uid, spec.n_shards) == spec.shard_id
                ],
            )

    def _actor(self, user_index: int) -> UserActor:
        actor = self.actors.get(user_index)
        if actor is None:
            epoch = 0 if self.fleet is None else self.fleet.spawn_epoch(user_index)
            actor = self.actors[user_index] = UserActor(
                user_id=self.schedule.user_ids[user_index],
                user_index=user_index,
                seed=self.spec.seed,
                config=self.spec.edge,
                time_source=self.time_source,
                ledger_max_epsilon=self.spec.ledger_max_epsilon,
                epoch=epoch,
            )
        return actor

    def _revive(self, state: Dict[str, Any]) -> UserActor:
        """Rebuild an actor from a fleet snapshot, wired to this shard."""
        return UserActor.from_snapshot(
            state,
            config=self.spec.edge,
            time_source=self.time_source,
            ledger_max_epsilon=self.spec.ledger_max_epsilon,
        )

    def _handle_event(self, seq: int) -> Tuple[Optional[ServeResponse], List[Charge]]:
        """Serve one event end to end: edge decision, auction, delivery.

        Under a fleet scenario the event may come back unserved (device
        down): ``(None, [])`` — no response, no charge, counted on
        ``fleet.unserved_events``.
        """
        event = self.schedule.event(seq)
        if self.fleet is not None:
            disposition = self.fleet.before_event(
                seq, event.user_index, self.actors, self._revive
            )
            if not disposition.served:
                return None, []
        actor = self._actor(event.user_index)
        entries_before = len(actor.ledger.entries)
        t0 = self.time_source.monotonic()
        reported, path = actor.handle_checkin(event.timestamp, event.x, event.y)
        request = self.network.new_request(event.user_id, reported, event.timestamp)
        bid_response = self.network.handle(request)
        delivered, stats = filter_ads_to_aoi(
            bid_response.ads, event.point, self.spec.edge.targeting_radius
        )
        elapsed = self.time_source.monotonic() - t0
        if self.spec.work_sleep_s > 0.0:
            time.sleep(self.spec.work_sleep_s)
        registry = trace.get_registry()
        registry.counter("serve.events").inc()
        registry.counter(f"serve.path.{path}").inc()
        registry.counter("serve.ads_delivered").inc(len(delivered))
        registry.histogram("serve.handle_seconds").observe(elapsed)
        response = build_response(
            seq=seq,
            user_index=event.user_index,
            path=path,
            reported=reported,
            delivered=delivered,
            received=stats.received,
        )
        return response, actor.charged_since(entries_before)

    def process(self, batch: List[int]) -> BatchResult:
        """Serve a batch of event sequence numbers, in order."""
        result = BatchResult(shard_id=self.spec.shard_id)
        if self.spec.replay:
            for seq in batch:
                with trace.collect() as obs:
                    response, charged = self._handle_event(seq)
                if response is not None:
                    result.responses.append(response)
                result.observations.append((seq, obs.metrics))
                result.charges.append((seq, charged))
        else:
            with trace.collect() as obs:
                for seq in batch:
                    response, charged = self._handle_event(seq)
                    if response is not None:
                        result.responses.append(response)
                    result.charges.append((seq, charged))
            result.observations.append((-1, obs.metrics))
        return result

    def finalize(self) -> List[ActorFinalize]:
        """Drain every seat (flush trailing windows), in user order.

        Ordering by ``user_index`` — not by shard arrival — lets the
        service merge finalize observations identically for any shard
        count.  Under a fleet scenario the drain also visits parked and
        destroyed seats: pending faults are applied (inside the seat's
        own collect window), parked snapshots are revived so their
        ledgers survive into the accounting, and a seat left with no
        actor (lossy crash, never rebuilt) contributes an empty record
        so its loss gauges still merge at the right position.
        """
        results: List[ActorFinalize] = []
        if self.fleet is None:
            seats = sorted(self.actors)
        else:
            seats = self.fleet.finalize_seats(self.actors)
        for user_index in seats:
            with trace.collect() as obs:
                if self.fleet is not None:
                    self.fleet.before_finalize(
                        user_index, self.actors, self._revive
                    )
                actor = self.actors.get(user_index)
                if actor is not None:
                    entries_before = len(actor.ledger.entries)
                    actor.finalize()
            if actor is None:
                results.append(
                    ActorFinalize(
                        user_index=user_index,
                        metrics=obs.metrics,
                        charges=[],
                        events_handled=0,
                        ledger_epsilon=0.0,
                        ledger_delta=0.0,
                        ledger_spends=0,
                    )
                )
                continue
            results.append(
                ActorFinalize(
                    user_index=user_index,
                    metrics=obs.metrics,
                    charges=actor.charged_since(entries_before),
                    events_handled=actor.events_handled,
                    ledger_epsilon=actor.ledger.total_epsilon,
                    ledger_delta=actor.ledger.total_delta,
                    ledger_spends=actor.ledger.spends,
                )
            )
        return results

    # -- checkpointing (network-partition support) ------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """The shard's full durable state, picklable and JSON-able.

        Carries every actor snapshot, the fleet runtime's seat/store
        state, and the virtual clock reading.  The ad network is *not*
        checkpointed: its campaign inventory is a pure function of the
        spec seed, and its request counter and bid log never reach the
        response or metrics digests — a restored shard rebuilds it
        fresh and continues bit-identically.
        """
        return {
            "actors": {
                str(i): actor.snapshot()
                for i, actor in sorted(self.actors.items())
            },
            "fleet": (
                None if self.fleet is None else self.fleet.checkpoint_state()
            ),
            "virtual_ticks": (
                self.time_source.ticks
                if isinstance(self.time_source, VirtualTimeSource)
                else None
            ),
        }

    @classmethod
    def from_checkpoint(
        cls,
        spec: ShardSpec,
        schedule: EventSchedule,
        checkpoint: Dict[str, Any],
    ) -> "ShardState":
        """Rebuild a shard from :meth:`checkpoint` output.

        The restored shard resumes the virtual timeline (``seek``) and
        every actor's RNG stream exactly, so a partition-degrade (or a
        heal-rejoin) in replay mode leaves both digests untouched.
        """
        state = cls(spec, schedule)
        ticks = checkpoint.get("virtual_ticks")
        if ticks is not None and isinstance(state.time_source, VirtualTimeSource):
            state.time_source.seek(int(ticks))
        fleet_state = checkpoint.get("fleet")
        if fleet_state is not None and state.fleet is not None:
            state.fleet.restore_state(fleet_state)
        for key, snap in checkpoint.get("actors", {}).items():
            state.actors[int(key)] = state._revive(snap)
        return state


# ---------------------------------------------------------------------------
# Process-backend entry points.  One single-worker ProcessPoolExecutor per
# shard calls _init_shard once (via its initializer) and then submits
# _process_batch/_finalize_shard; the module-global state is safe because
# the executor has exactly one worker.
# ---------------------------------------------------------------------------

_SHARD_STATE: Optional[ShardState] = None


def _init_shard(spec: ShardSpec, payload: Dict[str, Any]) -> None:
    """Worker initializer: import the (possibly shm-backed) schedule."""
    global _SHARD_STATE
    schedule = EventSchedule.from_payload(import_payload(payload))
    _SHARD_STATE = ShardState(spec, schedule)


def _process_batch(batch: List[int]) -> BatchResult:
    """Serve one batch in the worker's shard state."""
    if _SHARD_STATE is None:
        raise RuntimeError("shard worker used before _init_shard")
    return _SHARD_STATE.process(batch)


def _finalize_shard() -> List[ActorFinalize]:
    """Drain the worker's actors for graceful shutdown."""
    if _SHARD_STATE is None:
        raise RuntimeError("shard worker used before _init_shard")
    return _SHARD_STATE.finalize()


def _checkpoint_shard() -> Dict[str, Any]:
    """Snapshot the worker's shard state (partition-degrade path)."""
    if _SHARD_STATE is None:
        raise RuntimeError("shard worker used before _init_shard")
    return _SHARD_STATE.checkpoint()


def _restore_shard(
    spec: ShardSpec, payload: Dict[str, Any], checkpoint: Dict[str, Any]
) -> None:
    """Worker initializer for heal-rejoin: resume from a checkpoint."""
    global _SHARD_STATE
    schedule = EventSchedule.from_payload(import_payload(payload))
    _SHARD_STATE = ShardState.from_checkpoint(spec, schedule, checkpoint)
