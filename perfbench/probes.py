"""Measurement probes wrapped around the program's public functions.

Nothing here edits the program: every probe is a wrapper that the
benchmark installs on a module or class attribute and removes again,
restoring the exact object it replaced.  Three kinds exist:

* **spans** (traced runs only) — synchronous calls recorded in an
  in-memory :class:`Tracer` with name, start, end, parent span and the
  request id (event ``seq`` or chunk start) current when they began;
* **counters** — count calls, or read a quantity off a call's result;
* **always-on probes** — the per-event latency probe, the first-batch
  probe that ends ``setup_s``, and the interpreter GC probe.  They cost
  one clock read per event or per batch and run in every measured run.

Serve workers are forked from the measuring process, so they inherit the
installed wrappers.  After a fork the child clears its buffers, and a
worker writes what it measured to the spool directory when its shard is
checkpointed or finalised; :meth:`Probes.drain_spool` folds those files
back in once the run has ended.
"""

from __future__ import annotations

import gc
import json
import os
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

perf_counter = time.perf_counter

#: The probes currently installed in this process (at most one set).
_ACTIVE: Optional["Probes"] = None
_FORK_HOOK_REGISTERED = False


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE.reset_buffers()


class Tracer:
    """In-memory spans of one traced run, kept as flat arrays.

    Spans nest through a stack, so they must wrap synchronous calls only:
    an ``await`` inside a span would let another task's spans land under
    it.  Waits on the asyncio loop are measured as wait times instead.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        #: Request id stamped on spans that begin from now on.
        self.current_request = -1

    def name_id(self, name: str) -> int:
        """The compact id of a span name, registering it on first use."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        """Open a span; returns its index for :meth:`finish`."""
        index = len(self.start)
        self.name_ix.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.current_request)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def finish(self, index: int) -> None:
        """Close the innermost span, which must be ``index``."""
        self.end[index] = perf_counter()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError("spans closed out of order")

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> Dict[str, Tuple[float, float, int]]:
        """Per name: ``(self seconds, inclusive seconds, span count)``.

        A span's self time is its duration minus the time its child spans
        cover.  Children of one span never overlap (they come from one
        synchronous call stack), so the covered time is their summed
        duration.
        """
        if self._stack:
            raise RuntimeError("self times read while spans are still open")
        if not len(self):
            return {}
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_ix, dtype=np.int32)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        own = dur - covered
        n = len(self.names)
        self_sum = np.bincount(names, weights=own, minlength=n)
        incl_sum = np.bincount(names, weights=dur, minlength=n)
        counts = np.bincount(names, minlength=n)
        return {
            name: (float(self_sum[i]), float(incl_sum[i]), int(counts[i]))
            for i, name in enumerate(self.names)
        }

    def root_seconds(self) -> float:
        """Summed duration of the spans that have no parent."""
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        parent = np.frombuffer(self.parent, dtype=np.int32)
        return float(dur[parent < 0].sum())

    def write(self, path: str) -> None:
        """Write every span to ``path`` (``.npz``: arrays plus name table)."""
        np.savez(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.name_ix, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class GcProbe:
    """Interpreter GC pauses, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.pause_s = 0.0
        self.pause_max_s = 0.0
        self.gen2 = 0
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = perf_counter()
            return
        pause = perf_counter() - self._started
        self.pause_s += pause
        self.pause_max_s = max(self.pause_max_s, pause)
        if info.get("generation") == 2:
            self.gen2 += 1


class Probes:
    """One set of installed wrappers and the buffers they fill.

    ``install(targets)`` takes ``(owner, attribute, make_wrapper)``
    triples; ``remove()`` puts back the exact object each attribute held.
    A class attribute must be defined on that class itself: wrapping an
    inherited one would shadow it on the subclass only.
    """

    def __init__(self, spool_dir: Optional[str] = None) -> None:
        self.owner_pid = os.getpid()
        self.spool_dir = spool_dir
        self.tracer: Optional[Tracer] = None
        self.gc = GcProbe()
        self.counters: Dict[str, float] = defaultdict(float)
        self._saved: List[Tuple[Any, str, Any]] = []
        self._spool_seq = 0
        self.batches = 0
        self.batch_events = 0
        self.high_water = 0
        self.put_wait_s = 0.0
        #: Shard-worker busy time (process, checkpoint, finalise), via the spool.
        self.worker_busy_s = 0.0
        self.reset_buffers()
        self.reset_run()

    # -- buffers ---------------------------------------------------------

    def reset_buffers(self) -> None:
        """Empty what one process measured (also run in a forked child).

        A forked worker also drops the tracer: its spans would never reach
        the parent, so in a worker the span wrappers only call through.
        """
        if os.getpid() != self.owner_pid:
            self.tracer = None
        self.latency = array("d")
        self.busy_s = 0.0
        self.gc.reset()
        self._mark = 0.0
        #: Executor start/join times and dispatch round trips (appended
        #: from the executor's manager thread, hence lists).
        self.spawns: List[float] = []
        self.dispatches: List[float] = []
        #: Per pool pass: (wall, chunk-seconds sum, slowest, median chunk, workers).
        self.pool_passes: List[Tuple[float, float, float, float, int]] = []
        self.chunk_results = 0

    def reset_run(self) -> None:
        """Start a replay: its set-up ends at its own first batch."""
        self.first_batch_at: Optional[float] = None

    # -- install / remove ------------------------------------------------

    def install(self, targets: List[Tuple[Any, str, Callable[[Any], Any]]]) -> None:
        """Wrap each ``owner.attribute`` with ``make_wrapper(original)``."""
        global _ACTIVE, _FORK_HOOK_REGISTERED
        if _ACTIVE is not None and _ACTIVE is not self:
            raise RuntimeError("another probe set is already installed")
        if not _FORK_HOOK_REGISTERED:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _FORK_HOOK_REGISTERED = True
        _ACTIVE = self
        if self.gc not in gc.callbacks:
            gc.callbacks.append(self.gc)
        for owner, attr, make_wrapper in targets:
            # A class attribute is read from the class's own namespace, so
            # a classmethod is seen as such and restored as the same object.
            if isinstance(owner, type):
                if attr not in vars(owner):
                    raise ValueError(f"{owner.__name__}.{attr} is inherited; wrap its owner")
                raw = vars(owner)[attr]
            else:
                raw = getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(make_wrapper(raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(make_wrapper(raw.__func__))
            else:
                wrapped = make_wrapper(raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        global _ACTIVE
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        if self.gc in gc.callbacks:
            gc.callbacks.remove(self.gc)
        if _ACTIVE is self:
            _ACTIVE = None

    def settle(self) -> None:
        """Full collection between measured units, outside the GC probe.

        Every replay or pass then starts from the same heap state, so the
        collector's own trigger points repeat from unit to unit instead of
        landing in whichever unit crosses a threshold left by the last.
        """
        gc.callbacks.remove(self.gc)
        try:
            gc.collect()
        finally:
            gc.callbacks.append(self.gc)

    def __enter__(self) -> "Probes":
        return self

    def __exit__(self, *exc: object) -> None:
        self.remove()

    # -- wrapper factories -------------------------------------------------

    def span(self, name: str, observe: Optional[Callable[..., None]] = None) -> Callable:
        """Factory: record a span named ``name`` around each call."""

        def make(fn: Callable) -> Callable:
            def wrapped(*args: Any, **kwargs: Any) -> Any:
                tracer = self.tracer
                if tracer is None:
                    return fn(*args, **kwargs)
                index = tracer.begin(tracer.name_id(name))
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.finish(index)
                if observe is not None:
                    observe(self.counters, args, out)
                return out

            return wrapped

        return make

    def count(self, name: str) -> Callable:
        """Factory: count calls while tracing."""

        def make(fn: Callable) -> Callable:
            def wrapped(*args: Any, **kwargs: Any) -> Any:
                if self.tracer is not None:
                    self.counters[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        return make

    def request(self, position: int) -> Callable:
        """Factory: stamp ``args[position]`` as the current request id."""

        def make(fn: Callable) -> Callable:
            def wrapped(*args: Any, **kwargs: Any) -> Any:
                if self.tracer is not None:
                    self.tracer.current_request = int(args[position])
                return fn(*args, **kwargs)

            return wrapped

        return make

    def batch(self, fn: Callable) -> Callable:
        """Shard batch entry: per-event latency starts at the batch start."""

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            self._mark = started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.busy_s += perf_counter() - started

        return wrapped

    def response(self, fn: Callable) -> Callable:
        """Egress record built: one per-event service-time sample."""

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            out = fn(*args, **kwargs)
            now = perf_counter()
            self.latency.append(now - self._mark)
            self._mark = now
            return out

        return wrapped

    def first_batch(self, fn: Callable) -> Callable:
        """Ingress ``get_batch``: the first batch ends set-up."""

        async def wrapped(queue: Any, *args: Any, **kwargs: Any) -> Any:
            batch = await fn(queue, *args, **kwargs)
            if batch:
                if self.first_batch_at is None:
                    self.first_batch_at = perf_counter()
                self.batches += 1
                self.batch_events += len(batch)
                self.high_water = max(self.high_water, queue.high_water)
            return batch

        return wrapped

    def put_wait(self, fn: Callable) -> Callable:
        """Ingress ``put``: time the producer spends blocked on a full queue."""

        async def wrapped(*args: Any, **kwargs: Any) -> Any:
            started = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                self.put_wait_s += perf_counter() - started

        return wrapped

    def chunk_stats(self, fn: Callable) -> Callable:
        """``parallel_map_with_stats``: chunk times become latency samples."""

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            results, stats = fn(*args, **kwargs)
            seconds = [c.seconds for c in stats.chunk_timings]
            self.chunk_results += len(results)
            self.latency.extend(seconds)
            if seconds:
                self.pool_passes.append((
                    stats.total_seconds,
                    float(sum(seconds)),
                    max(seconds),
                    float(np.median(seconds)),
                    stats.workers if stats.pool_used else 1,
                ))
            return results, stats

        return wrapped

    def spool_after(self, fn: Callable) -> Callable:
        """Shard checkpoint/finalise: a worker hands its buffers back."""

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            started = perf_counter()
            out = fn(*args, **kwargs)
            if os.getpid() != self.owner_pid:
                self.busy_s += perf_counter() - started
                self._spool()
            return out

        return wrapped

    # -- worker spool ------------------------------------------------------

    def _spool(self) -> None:
        if self.spool_dir is None:
            raise RuntimeError("worker probes need a spool directory")
        self._spool_seq += 1
        stem = os.path.join(self.spool_dir, f"w{os.getpid()}-{self._spool_seq}")
        np.save(stem + ".npy", np.frombuffer(self.latency, dtype=np.float64))
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"busy_s": self.busy_s}, fh)
        self.reset_buffers()

    def drain_spool(self) -> None:
        """Fold every worker spool file into this process's buffers.

        Latency samples join the parent's; busy time goes to
        ``worker_busy_s``, separate from the parent's own.
        """
        if self.spool_dir is None or not os.path.isdir(self.spool_dir):
            return
        for entry in sorted(os.listdir(self.spool_dir)):
            if not entry.endswith(".json"):
                continue
            stem = os.path.join(self.spool_dir, entry[: -len(".json")])
            with open(stem + ".json", encoding="utf-8") as fh:
                meta = json.load(fh)
            self.latency.extend(np.load(stem + ".npy").tolist())
            self.worker_busy_s += meta["busy_s"]
            os.remove(stem + ".json")
            os.remove(stem + ".npy")
