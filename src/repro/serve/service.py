"""The serve orchestrator: ingest, route, backpressure, drain, account.

One asyncio event loop hosts a producer (the event stream) and one
consumer task per shard.  The producer routes every event to its owning
shard's :class:`~repro.serve.ingress.BoundedIngressQueue` — shedding
under pressure in live mode, cooperatively blocking in replay mode — and
each consumer drains its queue in batches into the shard backend:

* **process backend** — one single-worker ``ProcessPoolExecutor`` per
  shard (single-worker so the shard's actors live in exactly one
  process), forked (the backend requires the fork start method) and
  initialised once with the shard spec and the shared-memory schedule
  payload.  A heal forks a worker that adopts the live inline shard;
* **inline fallback** — sandboxes without fork/semaphores run the shard
  states in the parent process.  Batches execute inline (not in
  threads): :func:`repro.obs.trace.collect` swaps a process-global
  runtime, so concurrent collection from threads would interleave.

Shutdown is a drain, not an abort: the producer closes every queue, the
consumers finish whatever is buffered, and every actor flushes its
trailing profile window before the fleet snapshot is taken.

The fleet metrics snapshot is folded parent-side as each batch result
arrives, not buffered until the drain.  In replay the per-event
snapshots fold in global ``seq`` order: an arrival ahead of the fold's
cursor waits in a reassembly buffer, which therefore holds only
out-of-order arrivals.  Live mode folds each batch's snapshot in arrival
order.  After the drain come the per-actor finalize snapshots in
``user_index`` order, then the parent's own ingress/latency metrics.
The epsilon/delta audit folds the underlying ledger entries at the same
step as their snapshot, through the *same* float operation sequence the
gauges took, so ``privacy.epsilon_spent == audit_epsilon`` holds
bitwise, at any shard count.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

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
    _adopt_shard,
    _checkpoint_shard,
    _finalize_shard,
    _init_shard,
    _process_batch,
)

__all__ = ["ServeConfig", "ServeResult", "ServeService"]

#: Exceptions that mean "this sandbox cannot run worker processes".
_POOL_UNAVAILABLE = (OSError, PermissionError, NotImplementedError, ImportError)


def _fork_worker(initializer: Any, *initargs: Any) -> ProcessPoolExecutor:
    """A one-worker pool forked from this process, inheriting ``initargs``."""
    if "fork" not in multiprocessing.get_all_start_methods():
        raise NotImplementedError("the process backend needs the fork start method")
    fork = multiprocessing.get_context("fork")
    return ProcessPoolExecutor(
        max_workers=1, mp_context=fork, initializer=initializer, initargs=initargs
    )


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
    #: A paced producer that fell behind catches up in bursts of this size.
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
    #: Out of the repr: at exit asyncio formats the main task's result
    #: into an error message, and these run to megabytes.
    responses: List[ServeResponse] = field(repr=False)
    metrics: Snapshot = field(repr=False)
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


class _Fold:
    """The fleet metrics and ledger audit, folded as batch results arrive.

    Replay folds per-event snapshots in global ``seq`` order, so the
    merged floats associate identically at any shard count; an arrival
    ahead of ``cursor`` waits in ``ahead`` until the events before it
    have folded.  Live mode folds each batch's one snapshot on arrival.

    The audit mirrors the gauges' exact float-op order: each snapshot's
    charges fold into a partial sum first (that is how the collected
    registry accumulated the gauge), then the partial folds into the
    running total (that is how ``merge`` adds snapshot gauge values) —
    so gauge == audit holds bitwise.
    """

    def __init__(self, replay: bool, n_shards: int) -> None:
        self.replay = replay
        self.registry = MetricsRegistry()
        self.audit_epsilon = 0.0
        self.audit_delta = 0.0
        self.responses: List[ServeResponse] = []
        self.batches = [0] * n_shards
        self.cursor = 0
        self.ahead: Dict[int, Tuple[Snapshot, List[Charge]]] = {}

    def add(self, snapshot: Snapshot, charges: Iterable[Charge]) -> None:
        """Merge one snapshot and fold its charges as one partial sum."""
        self.registry.merge(snapshot)
        part_eps = 0.0
        part_delta = 0.0
        for eps, delta in charges:
            part_eps += eps
            part_delta += delta
        self.audit_epsilon += part_eps
        self.audit_delta += part_delta

    def batch(self, result: BatchResult) -> None:
        """Fold one shard's batch result, as far as ``seq`` order allows."""
        self.responses.extend(result.responses)
        self.batches[result.shard_id] += 1
        if not self.replay:
            ((_, snapshot),) = result.observations
            self.add(snapshot, (c for _, charged in result.charges for c in charged))
            return
        for (seq, snapshot), (_, charged) in zip(result.observations, result.charges):
            if seq < self.cursor or seq in self.ahead:
                raise RuntimeError(f"event {seq} arrived twice")
            self.ahead[seq] = (snapshot, charged)
        while self.cursor in self.ahead:
            self.add(*self.ahead.pop(self.cursor))
            self.cursor += 1

    def drain(self, n_events: int) -> None:
        """Raise unless every replayed event folded exactly once."""
        if self.replay and (self.cursor != n_events or self.ahead):
            raise RuntimeError(
                f"replay fold stopped at event {self.cursor} of {n_events} "
                f"with {len(self.ahead)} later events unfolded"
            )


class _ShardBackend:
    """One shard's execution seat: a worker process, or inline state.

    The backend records every batch it has successfully processed
    (``history``) so an unplanned worker failure — a dispatch timeout or
    a broken executor — can be recovered by *event-sourced rebuild*:
    discard the worker, replay the shard's whole batch history against a
    fresh inline state (discarding the replayed outputs, which were
    already accounted upstream), and continue inline.  A planned
    :class:`~repro.fleet.scenario.NetworkPartition` takes the cheaper
    path: checkpoint the worker's state and restore it inline.  The
    matching heal forks a new worker that adopts that inline state as
    it stands (see :meth:`ServeService._rejoin`).
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

    async def partition(self) -> None:
        """Planned partition: continue inline from the shard's checkpoint."""
        if self.executor is not None:
            loop = asyncio.get_running_loop()
            checkpoint = await loop.run_in_executor(self.executor, _checkpoint_shard)
            self.executor.shutdown(wait=True)
            self.executor = None
            self.degraded = True
        else:
            assert self.state is not None
            checkpoint = self.state.checkpoint()
        self.state = ShardState.from_checkpoint(self.spec, self.schedule, checkpoint)


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
                    pool = _fork_worker(_init_shard, spec, exported)
                    # Force the worker (and its initializer) to start now,
                    # so sandbox failures surface here, not mid-stream.
                    pool.submit(_process_batch, []).result()
                    executors.append(pool)
                backends = [
                    _ShardBackend(spec, self.schedule, pool)
                    for spec, pool in zip(specs, executors)
                ]
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
        overdue = 0
        for seq in range(len(self.schedule)):
            queue = queues[int(assignment[seq])]
            if cfg.replay:
                await queue.put(seq)
            else:
                if cfg.qps > 0:
                    due = start + (seq + 1) / cfg.qps
                    delay = due - loop.time()
                    if delay > 0:
                        overdue = 0
                        await asyncio.sleep(delay)
                    else:
                        # Behind schedule after a loop stall (e.g. a GC
                        # pause): catch up in bursts that let consumers
                        # drain, rather than offering the whole backlog
                        # at once and shedding it against a full queue.
                        overdue += 1
                        if overdue % cfg.producer_burst == 0:
                            await asyncio.sleep(0)
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
        fold: _Fold,
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
            fold.batch(await self._dispatch(backend, batch, parent))
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
                await backend.partition()
            elif isinstance(event, NetworkHeal):
                parent.counter(FLEET_HEALS).inc()
                await self._rejoin(backend, parent)

    async def _rejoin(
        self, backend: _ShardBackend, parent: MetricsRegistry
    ) -> None:
        """Heal: fork a worker that adopts the live inline shard as it is.

        Nothing is checkpointed, pickled or restored, so the worker resumes
        bit-identically by construction; a failed fork leaves it inline.
        The state reaches the worker through a one-slot holder, emptied
        once the worker has forked, so the executor's ``initargs`` do not
        keep the parent's copy alive.
        """
        if not backend.degraded or not self.config.use_processes:
            return
        loop = asyncio.get_running_loop()
        holder = [backend.state]
        try:
            pool = _fork_worker(_adopt_shard, holder)
            # Probe now so a failed spawn keeps us inline, not mid-batch.
            await loop.run_in_executor(pool, _process_batch, [])
        except _POOL_UNAVAILABLE + (BrokenExecutor,):
            return
        finally:
            holder.clear()
        backend.executor = pool
        backend.state = None
        backend.degraded = False
        if not self.config.replay:
            parent.counter(FLEET_REJOINS).inc()

    async def _run(self) -> ServeResult:
        cfg = self.config
        backends, lease, backend_kind = self._build_backends()
        queues = [BoundedIngressQueue(cfg.queue_capacity) for _ in backends]
        fold = _Fold(cfg.replay, len(backends))
        enqueue_times: Dict[int, float] = {}
        parent = MetricsRegistry()
        e2e = None if cfg.replay else parent
        try:
            consumers = [
                asyncio.ensure_future(
                    self._consume(shard_id, q, b, fold, enqueue_times, e2e, parent)
                )
                for shard_id, (q, b) in enumerate(zip(queues, backends))
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
        return self._assemble(queues, fold, finalizes, parent, backend_kind)

    # -- accounting --------------------------------------------------------

    def _assemble(
        self,
        queues: List[BoundedIngressQueue],
        fold: _Fold,
        finalizes: List[List[ActorFinalize]],
        parent: MetricsRegistry,
        backend_kind: str,
    ) -> ServeResult:
        """Close the fold: finalizes in ``user_index`` order, then the parent."""
        fold.drain(len(self.schedule))
        responses = fold.responses
        responses.sort(key=lambda r: r.seq)
        actor_finalizes = sorted(
            (af for per_shard in finalizes for af in per_shard),
            key=lambda af: af.user_index,
        )
        for af in actor_finalizes:
            fold.add(af.metrics, af.charges)

        enqueued = sum(q.enqueued for q in queues)
        dropped = sum(q.dropped for q in queues)
        parent.counter("serve.ingress.enqueued").inc(enqueued)
        parent.counter("serve.ingress.dropped").inc(dropped)
        fold.registry.merge(parent.snapshot())

        shard_stats = [
            {
                "shard_id": spec_id,
                "enqueued": q.enqueued,
                "dropped": q.dropped,
                "high_water": q.high_water,
                "batches": fold.batches[spec_id],
                "actors": len(finalizes[spec_id]),
                "events": sum(af.events_handled for af in finalizes[spec_id]),
            }
            for spec_id, q in enumerate(queues)
        ]
        return ServeResult(
            digest=response_digest(responses),
            responses=responses,
            metrics=fold.registry.snapshot(),
            audit_epsilon=fold.audit_epsilon,
            audit_delta=fold.audit_delta,
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
