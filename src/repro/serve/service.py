"""The serve orchestrator: ingest, route, backpressure, drain, account.

One asyncio event loop hosts a producer (the event stream) and one
consumer task per shard.  The producer routes every event to its owning
shard's :class:`~repro.serve.ingress.BoundedIngressQueue` — shedding
under pressure in live mode, cooperatively blocking in replay mode — and
each consumer drains its queue in batches into the shard backend:

* **process backend** — one single-worker ``ProcessPoolExecutor`` per
  shard (single-worker so the shard's actors live in exactly one
  process), initialised once with the shard spec and the shared-memory
  schedule payload;
* **inline fallback** — sandboxes without fork/semaphores run the shard
  states in the parent process.  Batches execute inline (not in
  threads): :func:`repro.obs.trace.collect` swaps a process-global
  runtime, so concurrent collection from threads would interleave.

Shutdown is a drain, not an abort: the producer closes every queue, the
consumers finish whatever is buffered, and every actor flushes its
trailing profile window before the fleet snapshot is taken.

The fleet metrics snapshot is assembled parent-side in a canonical
order — per-event observations in global ``seq`` order (replay), then
per-actor finalize observations in ``user_index`` order, then the
parent's own ingress/latency metrics — and the epsilon/delta audit
accumulates the underlying ledger entries through the *same* float
operation sequence the gauges took, so ``privacy.epsilon_spent ==
audit_epsilon`` holds bitwise, at any shard count.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.edge.clock import DEFAULT_VIRTUAL_TICK
from repro.fleet.scenario import NetworkHeal, NetworkPartition, Scenario
from repro.obs import trace
from repro.obs.fleet import (
    FLEET_BACKEND_RECOVERIES,
    FLEET_DISPATCH_RETRIES,
    FLEET_HEALS,
    FLEET_PARTITIONS,
    FLEET_REJOINS,
)
from repro.obs.metrics import MetricsRegistry, Snapshot
from repro.parallel.shared import export_payload
from repro.serve.actor import EdgeConfig
from repro.serve.egress import ServeResponse, response_digest
from repro.serve.events import EventSchedule, ServeWorkloadConfig, build_schedule
from repro.serve.ingress import BoundedIngressQueue
from repro.serve.shard import (
    ActorFinalize,
    BatchResult,
    Charge,
    ShardSpec,
    ShardState,
    _checkpoint_shard,
    _finalize_shard,
    _init_shard,
    _process_batch,
    _restore_shard,
)

__all__ = ["ServeConfig", "ServeResult", "ServeService"]

#: Exceptions that mean "this sandbox cannot run worker processes".
_POOL_UNAVAILABLE = (OSError, PermissionError, NotImplementedError, ImportError)


@dataclass(frozen=True)
class ServeConfig:
    """Service-level knobs (the workload has its own config)."""

    workload: ServeWorkloadConfig = ServeWorkloadConfig()
    n_shards: int = 2
    queue_capacity: int = 256
    batch_max: int = 32
    #: Live-mode producer pacing in events/second; 0 means unpaced.
    qps: float = 0.0
    #: Live-mode events offered between producer yields.  1 (default)
    #: interleaves producer and consumers event-by-event; larger bursts
    #: model an ingest spike arriving faster than the loop can drain —
    #: backpressure tests use this to saturate a queue deterministically.
    producer_burst: int = 1
    replay: bool = False
    use_processes: bool = True
    edge: EdgeConfig = EdgeConfig()
    ledger_max_epsilon: Optional[float] = None
    virtual_tick: float = DEFAULT_VIRTUAL_TICK
    #: Test knob, forwarded to the shards (see :class:`ShardSpec`).
    work_sleep_s: float = 0.0
    #: Optional fault-injection program (see :mod:`repro.fleet`).
    #: Device-level events run inside the shards; partition/heal events
    #: run here, against the shard backends.
    scenario: Optional[Scenario] = None
    #: When set, fleet actor snapshots are mirrored to JSON files here.
    checkpoint_dir: Optional[str] = None
    #: Per-batch dispatch timeout to a shard worker (None: wait forever).
    dispatch_timeout_s: Optional[float] = None
    #: Bounded retries after a dispatch failure, each preceded by an
    #: exponentially growing backoff and an event-sourced inline rebuild
    #: of the shard (exactly-once: a wedged worker's late results are
    #: discarded with its executor).
    dispatch_retries: int = 2
    dispatch_backoff_s: float = 0.05

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if self.qps < 0:
            raise ValueError("qps must be >= 0")
        if self.producer_burst < 1:
            raise ValueError("producer_burst must be >= 1")
        if self.dispatch_timeout_s is not None and self.dispatch_timeout_s <= 0:
            raise ValueError("dispatch_timeout_s must be positive when set")
        if self.dispatch_retries < 0:
            raise ValueError("dispatch_retries must be >= 0")
        if self.dispatch_backoff_s < 0:
            raise ValueError("dispatch_backoff_s must be >= 0")

    def shard_spec(self, shard_id: int) -> ShardSpec:
        """The picklable spec for one shard worker."""
        return ShardSpec(
            shard_id=shard_id,
            n_shards=self.n_shards,
            seed=self.workload.seed,
            edge=self.edge,
            n_campaigns=self.workload.n_campaigns,
            campaign_radius_m=self.workload.campaign_radius_m,
            replay=self.replay,
            virtual_tick=self.virtual_tick,
            ledger_max_epsilon=self.ledger_max_epsilon,
            work_sleep_s=self.work_sleep_s,
            scenario=self.scenario,
            checkpoint_dir=self.checkpoint_dir,
        )


@dataclass
class ServeResult:
    """Everything one service run produced, ready for report or assert."""

    digest: str
    responses: List[ServeResponse]
    metrics: Snapshot
    #: Ledger-entry sums accumulated through the gauges' float-op order;
    #: ``metrics["gauges"]["privacy.epsilon_spent"] == audit_epsilon``
    #: holds exactly.
    audit_epsilon: float
    audit_delta: float
    #: Naive per-actor ledger sums (entry order within each actor).
    ledger_epsilon: float
    ledger_delta: float
    ledger_spends: int
    enqueued: int
    dropped: int
    processed: int
    n_actors: int
    wall_seconds: float
    backend: str
    shard_stats: List[Dict[str, Any]] = field(default_factory=list)

    def metrics_digest(self) -> str:
        """SHA-256 of the canonical JSON of the fleet metrics snapshot."""
        canon = json.dumps(self.metrics, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class _ShardBackend:
    """One shard's execution seat: a worker process, or inline state.

    The backend records every batch it has successfully processed
    (``history``) so an unplanned worker failure — a dispatch timeout or
    a broken executor — can be recovered by *event-sourced rebuild*:
    discard the worker, replay the shard's whole batch history against a
    fresh inline state (discarding the replayed outputs, which were
    already accounted upstream), and continue inline.  A planned
    :class:`~repro.fleet.scenario.NetworkPartition` takes the cheaper
    path: checkpoint the worker's state and restore it inline.
    """

    def __init__(
        self,
        spec: ShardSpec,
        schedule: EventSchedule,
        executor: Optional[ProcessPoolExecutor],
    ) -> None:
        self.spec = spec
        self.schedule = schedule
        self.executor = executor
        self.state: Optional[ShardState] = (
            None if executor is not None else ShardState(spec, schedule)
        )
        #: Batches successfully processed, in order (the rebuild log).
        self.history: List[List[int]] = []
        #: True while a partition (or failure) has this shard inline
        #: although the run wanted worker processes.
        self.degraded = False

    async def process_once(self, batch: List[int]) -> BatchResult:
        """One dispatch attempt, no retry policy (the service adds it)."""
        if self.executor is not None:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(self.executor, _process_batch, batch)
        assert self.state is not None
        return self.state.process(batch)

    async def finalize(self) -> List[ActorFinalize]:
        if self.executor is not None:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(self.executor, _finalize_shard)
        assert self.state is not None
        return self.state.finalize()

    async def checkpoint(self) -> Dict[str, Any]:
        """The shard's durable state, from wherever it currently runs."""
        if self.executor is not None:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(self.executor, _checkpoint_shard)
        assert self.state is not None
        return self.state.checkpoint()

    def rebuild_inline(self) -> None:
        """Event-sourced recovery: fresh inline state, history replayed."""
        if self.executor is not None:
            self.executor.shutdown(wait=False, cancel_futures=True)
            self.executor = None
        state = ShardState(self.spec, self.schedule)
        for past in self.history:
            state.process(past)
        self.state = state
        self.degraded = True

    def degrade_from_checkpoint(self, checkpoint: Dict[str, Any]) -> None:
        """Planned partition: continue inline from the worker's checkpoint."""
        if self.executor is not None:
            self.executor.shutdown(wait=True)
            self.executor = None
            self.degraded = True
        self.state = ShardState.from_checkpoint(
            self.spec, self.schedule, checkpoint
        )


class ServeService:
    """Run the sharded edge service over one workload to completion."""

    def __init__(
        self, config: ServeConfig, schedule: Optional[EventSchedule] = None
    ) -> None:
        self.config = config
        self.schedule = schedule if schedule is not None else build_schedule(
            config.workload
        )
        #: Partition/heal events in stable order; each applies exactly
        #: once (``_net_applied`` tracks positions), so the fleet
        #: counters are invariant to shard count and batching.
        self._net_events = (
            config.scenario.network_events()
            if config.scenario is not None
            else []
        )
        self._net_applied: Set[int] = set()
        #: Stashed by :meth:`_build_backends` (process mode) so a
        #:  heal-rejoin can hand the schedule payload to a new worker.
        self._exported: Optional[Dict[str, Any]] = None

    def run(self) -> ServeResult:
        """Ingest the whole schedule, drain, and return the fleet result."""
        t0 = time.perf_counter()
        result = asyncio.run(self._run())
        result.wall_seconds = time.perf_counter() - t0
        if trace.enabled():
            trace.get_registry().merge(result.metrics)
        return result

    # -- orchestration ----------------------------------------------------

    def _build_backends(self) -> Tuple[List[_ShardBackend], Any, str]:
        """Build one backend per shard; fall back to inline on sandboxes."""
        cfg = self.config
        specs = [cfg.shard_spec(s) for s in range(cfg.n_shards)]
        if cfg.use_processes:
            exported, lease = export_payload(self.schedule.payload())
            executors: List[ProcessPoolExecutor] = []
            try:
                for spec in specs:
                    pool = ProcessPoolExecutor(
                        max_workers=1,
                        initializer=_init_shard,
                        initargs=(spec, exported),
                    )
                    # Force the worker (and its initializer) to start now,
                    # so sandbox failures surface here, not mid-stream.
                    pool.submit(_process_batch, []).result()
                    executors.append(pool)
                backends = [
                    _ShardBackend(spec, self.schedule, pool)
                    for spec, pool in zip(specs, executors)
                ]
                self._exported = exported
                return backends, lease, "process"
            except _POOL_UNAVAILABLE + (BrokenExecutor,):
                for pool in executors:
                    pool.shutdown(wait=False)
                lease.release()
        backends = [_ShardBackend(spec, self.schedule, None) for spec in specs]
        return backends, None, "inline"

    async def _produce(
        self,
        queues: List[BoundedIngressQueue],
        enqueue_times: Dict[int, float],
    ) -> None:
        """Route every event to its shard queue, paced or backpressured."""
        cfg = self.config
        assignment = self.schedule.shard_assignment(cfg.n_shards)
        loop = asyncio.get_running_loop()
        start = loop.time()
        for seq in range(len(self.schedule)):
            queue = queues[int(assignment[seq])]
            if cfg.replay:
                await queue.put(seq)
            else:
                if cfg.qps > 0:
                    due = start + (seq + 1) / cfg.qps
                    delay = due - loop.time()
                    if delay > 0:
                        await asyncio.sleep(delay)
                elif (seq + 1) % cfg.producer_burst == 0:
                    # Unpaced: still yield so consumers can interleave.
                    await asyncio.sleep(0)
                if queue.offer(seq):
                    enqueue_times[seq] = time.perf_counter()
        for queue in queues:
            queue.close()

    async def _consume(
        self,
        shard_id: int,
        queue: BoundedIngressQueue,
        backend: _ShardBackend,
        batches: List[BatchResult],
        enqueue_times: Dict[int, float],
        e2e: Optional[MetricsRegistry],
        parent: MetricsRegistry,
    ) -> None:
        """Drain one shard's queue to its backend until closed and empty.

        Planned partition/heal events land here, between batches, and
        any still pending when the queue closes are applied at drain
        time — each scenario event applies exactly once, whatever the
        shard count or batching.
        """
        while True:
            batch = await queue.get_batch(self.config.batch_max)
            if batch is None:
                await self._apply_network_events(shard_id, backend, None, parent)
                return
            await self._apply_network_events(shard_id, backend, batch[0], parent)
            result = await self._dispatch(backend, batch, parent)
            batches.append(result)
            if e2e is not None:
                done = time.perf_counter()
                for seq in batch:
                    started = enqueue_times.pop(seq, None)
                    if started is not None:
                        e2e.histogram("serve.e2e_seconds").observe(done - started)

    async def _dispatch(
        self,
        backend: _ShardBackend,
        batch: List[int],
        parent: MetricsRegistry,
    ) -> BatchResult:
        """Process one batch with timeout, bounded retry, and recovery.

        An attempt that times out or loses its worker is never
        re-dispatched to the same process (the batch is not idempotent
        inside a wedged worker): the executor is discarded, the shard is
        rebuilt inline from its event-sourced history, and the batch is
        retried there — exactly-once end to end.
        """
        cfg = self.config
        delay = cfg.dispatch_backoff_s
        last_error: Optional[BaseException] = None
        for attempt in range(cfg.dispatch_retries + 1):
            if attempt > 0:
                if not cfg.replay:
                    parent.counter(FLEET_DISPATCH_RETRIES).inc()
                if delay > 0:
                    await asyncio.sleep(delay)
                delay *= 2
            try:
                if cfg.dispatch_timeout_s is not None and backend.executor is not None:
                    result = await asyncio.wait_for(
                        backend.process_once(batch), cfg.dispatch_timeout_s
                    )
                else:
                    result = await backend.process_once(batch)
            except (asyncio.TimeoutError, BrokenExecutor) + _POOL_UNAVAILABLE as exc:
                last_error = exc
                if not cfg.replay:
                    parent.counter(FLEET_BACKEND_RECOVERIES).inc()
                backend.rebuild_inline()
                continue
            backend.history.append(list(batch))
            return result
        assert last_error is not None
        raise last_error

    async def _apply_network_events(
        self,
        shard_id: int,
        backend: _ShardBackend,
        next_seq: Optional[int],
        parent: MetricsRegistry,
    ) -> None:
        """Apply this shard's due partition/heal events, exactly once."""
        cfg = self.config
        for position, event in enumerate(self._net_events):
            if position in self._net_applied:
                continue
            if next_seq is not None and event.at > next_seq:
                break
            if event.shard % cfg.n_shards != shard_id:
                continue
            self._net_applied.add(position)
            if isinstance(event, NetworkPartition):
                parent.counter(FLEET_PARTITIONS).inc()
                backend.degrade_from_checkpoint(await backend.checkpoint())
            elif isinstance(event, NetworkHeal):
                parent.counter(FLEET_HEALS).inc()
                await self._rejoin(backend, parent)

    async def _rejoin(
        self, backend: _ShardBackend, parent: MetricsRegistry
    ) -> None:
        """Heal: try to hand the inline state back to a fresh worker."""
        if not backend.degraded or self._exported is None:
            return
        assert backend.state is not None
        checkpoint = backend.state.checkpoint()
        loop = asyncio.get_running_loop()
        try:
            pool = ProcessPoolExecutor(
                max_workers=1,
                initializer=_restore_shard,
                initargs=(backend.spec, self._exported, checkpoint),
            )
            # Probe now so a failed spawn keeps us inline, not mid-batch.
            await loop.run_in_executor(pool, _process_batch, [])
        except _POOL_UNAVAILABLE + (BrokenExecutor,):
            return
        backend.executor = pool
        backend.state = None
        backend.degraded = False
        if not self.config.replay:
            parent.counter(FLEET_REJOINS).inc()

    async def _run(self) -> ServeResult:
        cfg = self.config
        backends, lease, backend_kind = self._build_backends()
        queues = [BoundedIngressQueue(cfg.queue_capacity) for _ in backends]
        per_shard_batches: List[List[BatchResult]] = [[] for _ in backends]
        enqueue_times: Dict[int, float] = {}
        parent = MetricsRegistry()
        e2e = None if cfg.replay else parent
        try:
            consumers = [
                asyncio.ensure_future(
                    self._consume(
                        shard_id, q, b, out, enqueue_times, e2e, parent
                    )
                )
                for shard_id, (q, b, out) in enumerate(
                    zip(queues, backends, per_shard_batches)
                )
            ]
            await self._produce(queues, enqueue_times)
            await asyncio.gather(*consumers)
            finalizes = [await backend.finalize() for backend in backends]
        finally:
            for backend in backends:
                if backend.executor is not None:
                    backend.executor.shutdown(wait=True)
            if lease is not None:
                lease.release()
        return self._assemble(
            queues, per_shard_batches, finalizes, parent, backend_kind
        )

    # -- accounting --------------------------------------------------------

    def _assemble(
        self,
        queues: List[BoundedIngressQueue],
        per_shard_batches: List[List[BatchResult]],
        finalizes: List[List[ActorFinalize]],
        parent: MetricsRegistry,
        backend_kind: str,
    ) -> ServeResult:
        """Merge shard results into the canonical fleet-wide view."""
        cfg = self.config
        responses: List[ServeResponse] = []
        event_obs: List[Tuple[int, Snapshot]] = []
        event_charges: List[Tuple[int, List[Charge]]] = []
        for shard_batches in per_shard_batches:
            for batch in shard_batches:
                responses.extend(batch.responses)
                event_obs.extend(batch.observations)
                event_charges.extend(batch.charges)
        responses.sort(key=lambda r: r.seq)
        if cfg.replay:
            # Canonical order: per-event snapshots by global seq, so the
            # merged floats associate identically at any shard count.
            event_obs.sort(key=lambda pair: pair[0])
            event_charges.sort(key=lambda pair: pair[0])

        actor_finalizes = sorted(
            (af for per_shard in finalizes for af in per_shard),
            key=lambda af: af.user_index,
        )

        # The audit mirrors the gauges' exact float-op order: each
        # collected snapshot's charges fold into a partial sum first
        # (that is how the collected registry accumulated the gauge),
        # then the partial folds into the running total (that is how
        # merge() adds snapshot gauge values) — so gauge == audit holds
        # bitwise.
        merged = MetricsRegistry()
        audit_eps = 0.0
        audit_delta = 0.0
        if cfg.replay:
            charges_by_seq = dict(event_charges)
            for seq, snap in event_obs:
                merged.merge(snap)
                part_eps = 0.0
                part_delta = 0.0
                for eps, delta in charges_by_seq.get(seq, []):
                    part_eps += eps
                    part_delta += delta
                audit_eps += part_eps
                audit_delta += part_delta
        else:
            # Live mode collects one snapshot per batch; fold each
            # batch's charges as one partial sum, in the same
            # shard-then-batch order the snapshots merge in.
            for shard_batches in per_shard_batches:
                for batch in shard_batches:
                    for _, snap in batch.observations:
                        merged.merge(snap)
                    part_eps = 0.0
                    part_delta = 0.0
                    for _, charges in batch.charges:
                        for eps, delta in charges:
                            part_eps += eps
                            part_delta += delta
                    audit_eps += part_eps
                    audit_delta += part_delta
        for af in actor_finalizes:
            merged.merge(af.metrics)
            part_eps = 0.0
            part_delta = 0.0
            for eps, delta in af.charges:
                part_eps += eps
                part_delta += delta
            audit_eps += part_eps
            audit_delta += part_delta

        enqueued = sum(q.enqueued for q in queues)
        dropped = sum(q.dropped for q in queues)
        parent.counter("serve.ingress.enqueued").inc(enqueued)
        parent.counter("serve.ingress.dropped").inc(dropped)
        merged.merge(parent.snapshot())

        shard_stats = [
            {
                "shard_id": spec_id,
                "enqueued": q.enqueued,
                "dropped": q.dropped,
                "high_water": q.high_water,
                "batches": len(per_shard_batches[spec_id]),
                "actors": len(finalizes[spec_id]),
                "events": sum(af.events_handled for af in finalizes[spec_id]),
            }
            for spec_id, q in enumerate(queues)
        ]
        return ServeResult(
            digest=response_digest(responses),
            responses=responses,
            metrics=merged.snapshot(),
            audit_epsilon=audit_eps,
            audit_delta=audit_delta,
            ledger_epsilon=sum(af.ledger_epsilon for af in actor_finalizes),
            ledger_delta=sum(af.ledger_delta for af in actor_finalizes),
            ledger_spends=sum(af.ledger_spends for af in actor_finalizes),
            enqueued=enqueued,
            dropped=dropped,
            processed=len(responses),
            n_actors=len(actor_finalizes),
            wall_seconds=0.0,
            backend=backend_kind,
            shard_stats=shard_stats,
        )
