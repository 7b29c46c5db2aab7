"""The benchmark's two workloads: inputs, one measured unit, checks.

* ``serve-churn`` — replay, process backend with one shard worker, 2,000
  users with 120-day histories under a ``churn_scenario`` (crashes, one of
  them lossy, a roaming user, a slow device, a partition/heal that moves
  the shard inline and back).  Mostly nomadic events: actor creation,
  fresh Gaussian releases, ledger charges, snapshots, IPC.
* ``rebuild-metro`` — the Table II batch job (profile, eta-frequent,
  n-fold pin) through ``obfuscation_workload`` at two pool workers, over a
  20,000-user population with the metro-100k calibration, loaded through
  the ``repro.data`` stage cache.

Every input is a pure function of the ``--seed`` argument.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.experiments.table2_obfuscation_time as table2
import repro.fleet.audit as fleet_audit
import repro.obs.trace as obs_trace
import repro.parallel.pool as pool
import repro.serve.events as serve_events
import repro.serve.service as serve_service
import repro.serve.shard as serve_shard
from repro.ads.network import AdNetwork
from repro.core.gaussian import GaussianMechanism, NFoldGaussianMechanism
from repro.core.params import GeoIndBudget
from repro.data.cache import StageCache, stage_key
from repro.data.columns import CheckInColumns, PopulationColumns
from repro.data.tiers import TIERS
from repro.datagen.population import PopulationConfig, iter_population_spawned
from repro.edge import location_management
from repro.edge.location_management import LocationManagementModule
from repro.edge.obfuscation import ObfuscationModule
from repro.edge.output_selection import OutputSelectionModule
from repro.experiments.config import PAPER_DELTA, PAPER_NFOLD_N
from repro.fleet.runtime import FleetShardRuntime
from repro.fleet.scenario import Scenario, churn_scenario
from repro.obs.metrics import MetricsRegistry
from repro.profiles.profile import LocationProfile
from repro.serve.actor import UserActor
from repro.serve.events import EventSchedule, ServeWorkloadConfig, workload_user_ids
from repro.serve.ingress import BoundedIngressQueue
from repro.serve.service import ServeConfig, ServeService
from repro.serve.shard import ShardState

from probes import Probes, perf_counter

WORKLOADS = ("serve-churn", "rebuild-metro")

#: Worker processes each workload runs beside the measuring process.
WORKERS = {"serve-churn": 1, "rebuild-metro": 2}

#: Rebuild population: the metro-100k calibration at 20,000 users.
REBUILD_USERS = 20_000
REBUILD_WORKERS = 2
#: Set-ups timed per rebuild run (each loads the population and runs one
#: pool pass); ``setup_s`` is their median.
REBUILD_SETUPS = 5
#: Fewest serve replays per run, so ``setup_s`` is a median of several.
MIN_REPLAYS = 3

BUDGET = GeoIndBudget(r=500.0, epsilon=1.0, delta=PAPER_DELTA, n=PAPER_NFOLD_N)

RECORDED_DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServeInputs:
    """Everything a serve replay needs, derived from the seed."""

    workload: ServeWorkloadConfig
    scenario: Optional[Scenario]
    use_processes: bool


def serve_inputs(name: str, seed: int) -> ServeInputs:
    """The serve workload ``name`` for ``seed``."""
    if name == "serve-churn":
        wl = ServeWorkloadConfig(n_users=2_000, n_events=6_000, days=120.0, seed=seed)
        # churn 0.5 over 4 devices gives two crash/restart cycles; with
        # persist_fraction 0.5 the second one is lossy.
        scenario = churn_scenario(
            wl.n_events,
            workload_user_ids(wl.n_users),
            n_devices=4,
            churn=0.5,
            persist_fraction=0.5,
            seed=seed,
            name="perfbench-churn",
        )
        return ServeInputs(wl, scenario, use_processes=True)
    raise ValueError(f"not a serve workload: {name!r}")


def rebuild_config(seed: int) -> PopulationConfig:
    """The rebuild population for ``seed``: metro-100k shape, 20k users."""
    base = TIERS["metro-100k"].config()
    return dataclasses.replace(base, n_users=REBUILD_USERS, seed=base.seed + seed)


def population_key(config: PopulationConfig) -> str:
    return stage_key("perfbench-population", {"config": config}, "1")


def _generate_chunk(
    ranges: List[Tuple[int, int]], rng: np.random.Generator, config: PopulationConfig
) -> List[Dict[str, np.ndarray]]:
    return [
        PopulationColumns.from_users(iter_population_spawned(config, start, stop)).arrays()
        for start, stop in ranges
    ]


def ensure_population(seed: int, cache_dir: str, workers: int = REBUILD_WORKERS) -> None:
    """Generate the seed's population into the stage cache unless present."""
    config = rebuild_config(seed)
    cache = StageCache(cache_dir)
    key = population_key(config)
    if cache.path_for(key).is_file():
        return
    step = 2_500
    ranges = [(s, min(s + step, config.n_users)) for s in range(0, config.n_users, step)]
    shards = pool.parallel_map(
        _generate_chunk, ranges, workers=workers, chunk_size=1, payload=config
    )
    cache.store(key, PopulationColumns.concat(
        [PopulationColumns.from_arrays(a) for a in shards]
    ).arrays())


# ---------------------------------------------------------------------------
# Recorded digests
# ---------------------------------------------------------------------------


class DigestBook:
    """Digests recorded per workload and seed.

    ``perfbench/digests.json`` holds the committed record.  A seed it does
    not list is checked against the first digest this checkout saw for it
    (kept under the benchmark's output directory).
    """

    def __init__(self, local_path: str) -> None:
        with open(RECORDED_DIGESTS, encoding="utf-8") as fh:
            self.recorded: Dict[str, Dict[str, str]] = json.load(fh)
        self.local_path = local_path
        self.local: Dict[str, Dict[str, str]] = {}
        if os.path.isfile(local_path):
            with open(local_path, encoding="utf-8") as fh:
                self.local = json.load(fh)

    def expected(self, workload: str, seed: int) -> Optional[str]:
        key = str(seed)
        return self.recorded.get(workload, {}).get(key) or self.local.get(workload, {}).get(key)

    def remember(self, workload: str, seed: int, digest: str) -> None:
        if self.expected(workload, seed) is not None:
            return
        self.local.setdefault(workload, {})[str(seed)] = digest
        tmp = self.local_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.local, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.local_path)


# ---------------------------------------------------------------------------
# Probe targets
# ---------------------------------------------------------------------------


def _ads_returned(counters: Dict[str, float], args: Any, out: Any) -> None:
    counters["ads.returned"] += len(out.ads)


def _aoi_kept(counters: Dict[str, float], args: Any, out: Any) -> None:
    counters["aoi.received"] += out[1].received
    counters["aoi.delivered"] += out[1].delivered


def _window_closed(counters: Dict[str, float], args: Any, out: Any) -> None:
    counters["location.window_closes"] += 1


def _loaded_bytes(counters: Dict[str, float], args: Any, out: Any) -> None:
    if out is not None:
        counters["data.bytes"] += sum(a.nbytes for a in out.values())


def _chunk_users(counters: Dict[str, float], args: Any, out: Any) -> None:
    counters["kernels.users"] += args[4] - args[3]


def _exported(counters: Dict[str, float], args: Any, out: Any) -> None:
    exported, lease = out
    counters["transport.shm_bytes"] += lease.total_bytes
    counters["transport.mmap_bytes"] += lease.mmap_bytes
    counters["transport.pickle_bytes"] += len(pickle.dumps(exported))


def timed_collect(probes: Probes) -> Callable:
    """``repro.obs.trace.collect``: span the collector's enter and exit."""

    span = probes.span("obs.collect")

    def make(fn: Callable) -> Callable:
        def wrapped() -> Any:
            inner = fn()
            if probes.tracer is None:
                return inner
            return _TimedCollector(inner, span)

        return wrapped

    return make


class _TimedCollector:
    def __init__(self, inner: Any, span: Callable) -> None:
        self._enter = span(inner.__enter__)
        self._exit = span(inner.__exit__)

    def __enter__(self) -> Any:
        return self._enter()

    def __exit__(self, *exc: object) -> None:
        self._exit(*exc)


def timed_executor(probes: Probes) -> Callable:
    """A ``ProcessPoolExecutor`` whose start, dispatches and join are timed.

    Under the fork start method the first ``submit`` forks every worker, so
    construction plus that call is the spawn cost; later submits are
    dispatches, timed from ``submit`` until the future's result is set.
    """

    def make(cls: type) -> type:
        class TimedExecutor(cls):  # type: ignore[misc, valid-type]
            def __init__(self, *args: Any, **kwargs: Any) -> None:
                self._bench_started = perf_counter()
                self._bench_first = True
                super().__init__(*args, **kwargs)

            def submit(self, fn: Callable, /, *args: Any, **kwargs: Any) -> Any:
                if self._bench_first:
                    self._bench_first = False
                    try:
                        return super().submit(fn, *args, **kwargs)
                    finally:
                        probes.spawns.append(perf_counter() - self._bench_started)
                started = perf_counter()
                future = super().submit(fn, *args, **kwargs)
                future.add_done_callback(
                    lambda _f: probes.dispatches.append(perf_counter() - started)
                )
                return future

            def shutdown(self, *args: Any, **kwargs: Any) -> None:
                started = perf_counter()
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    probes.spawns.append(perf_counter() - started)

        return TimedExecutor

    return make


def always_on(probes: Probes, workload: str) -> List[Tuple[Any, str, Callable]]:
    """Probes every measured run carries (set-up end and latency)."""
    if workload == "rebuild-metro":
        return [(pool, "parallel_map_with_stats", probes.chunk_stats)]
    return [
        (BoundedIngressQueue, "get_batch", probes.first_batch),
        (ShardState, "process", probes.batch),
        (serve_shard, "build_response", probes.response),
        (ShardState, "checkpoint", probes.spool_after),
        (ShardState, "finalize", probes.spool_after),
    ]


def traced(probes: Probes, workload: str) -> List[Tuple[Any, str, Callable]]:
    """Span and counter probes of a traced run (installed after ``always_on``)."""
    span, count = probes.span, probes.count
    if workload == "rebuild-metro":
        return [
            (StageCache, "load", span("data.load", _loaded_bytes)),
            (pool, "parallel_map_with_stats", span("pool.map")),
            (pool, "export_payload", span("transport.export", _exported)),
            (pool, "ProcessPoolExecutor", timed_executor(probes)),
            (table2, "chunk_csr", span("data.chunk", _chunk_users)),
            (table2, "chunk_csr", probes.request(3)),
            (table2, "population_profiles", span("kernels.profiles")),
            (table2, "population_eta_tops", span("kernels.eta")),
            (table2, "pin_candidates_population", span("kernels.pin")),
        ]
    return [
        (serve_events, "build_schedule", span("events.build")),
        (EventSchedule, "event", probes.request(1)),
        (BoundedIngressQueue, "put", probes.put_wait),
        (ServeService, "run", span("service.loop")),
        (serve_service, "export_payload", span("transport.export", _exported)),
        (serve_service, "ProcessPoolExecutor", timed_executor(probes)),
        (serve_service, "response_digest", span("egress.digest")),
        (ShardState, "process", span("shard.process")),
        (UserActor, "__init__", count("actor.created")),
        (UserActor, "handle_checkin", span("actor.handle")),
        (LocationManagementModule, "record", span("location.record")),
        (LocationProfile, "from_checkins", span("profiles.build", _window_closed)),
        (location_management, "eta_frequent_set", span("profiles.build")),
        (ObfuscationModule, "ensure_obfuscated", span("obfuscation.pin")),
        (NFoldGaussianMechanism, "obfuscate", count("obfuscation.pins")),
        (ObfuscationModule, "candidates_for", span("obfuscation.lookup")),
        (OutputSelectionModule, "select", span("selection.select")),
        (GaussianMechanism, "obfuscate", span("nomadic.obfuscate")),
        (AdNetwork, "new_request", span("ads.handle")),
        (AdNetwork, "handle", span("ads.handle", _ads_returned)),
        (serve_shard, "filter_ads_to_aoi", span("aoi.filter", _aoi_kept)),
        (serve_shard, "build_response", span("egress.encode")),
        (obs_trace, "collect", timed_collect(probes)),
        (MetricsRegistry, "merge", span("obs.merge")),
        (FleetShardRuntime, "before_event", span("fleet.before_event")),
        (UserActor, "snapshot", span("fleet.snapshot")),
        (UserActor, "from_snapshot", span("fleet.restore")),
        (ShardState, "checkpoint", span("fleet.shard_checkpoint")),
        (ShardState, "from_checkpoint", span("fleet.shard_checkpoint")),
        (fleet_audit, "audit_fleet", span("fleet.audit")),
    ]


# ---------------------------------------------------------------------------
# Measured units
# ---------------------------------------------------------------------------


@dataclass
class Unit:
    """One measured unit: a serve replay or a rebuild pass."""

    setup_s: float
    work_s: float
    #: Work items done: events served, or users rebuilt.
    items: int
    #: Operations attempted and failed (events offered / users).
    attempted: int
    failed: int
    digest: str
    problems: List[str]
    unserved: int = 0
    #: Serve: this replay's per-event service-time quantiles (seconds).
    p50_s: float = 0.0
    p99_s: float = 0.0
    #: Rebuild: this pass's per-chunk service times (seconds).
    chunk_s: Optional[np.ndarray] = None


def serve_replay(
    inputs: ServeInputs,
    probes: Probes,
    use_processes: bool,
    expected: Optional[str],
) -> Unit:
    """Build the schedule and service, serve every event, check the outputs.

    ``setup_s`` runs until the first batch is handed to a shard; the serve
    phase runs from there until the drained result is returned.
    """
    probes.reset_run()
    samples_before = len(probes.latency)
    started = perf_counter()
    schedule = serve_events.build_schedule(inputs.workload)
    config = ServeConfig(
        workload=inputs.workload,
        n_shards=1,
        replay=True,
        use_processes=use_processes,
        scenario=inputs.scenario,
    )
    result = ServeService(config, schedule=schedule).run()
    finished = perf_counter()
    probes.drain_spool()
    if probes.first_batch_at is None:
        raise RuntimeError("no batch reached a shard")
    audit = fleet_audit.audit_fleet(result)
    offered = len(schedule)
    unserved = int(result.metrics.get("counters", {}).get("fleet.unserved_events", 0))
    problems = []
    if use_processes and result.backend != "process":
        problems.append(f"backend is {result.backend}, not process")
    if not audit.gauge_matches_audit:
        problems.append("privacy gauges differ from the ledger audit")
    if not audit.conservation_ok:
        problems.append("surviving + lost budget differs from the audited spend")
    if result.processed + unserved != offered:
        problems.append(
            f"served {result.processed} + unserved {unserved} != offered {offered}"
        )
    if result.dropped:
        problems.append(f"{result.dropped} events shed")
    samples = np.frombuffer(probes.latency, dtype=np.float64)[samples_before:]
    if len(samples) != result.processed:
        problems.append(f"{len(samples)} latency samples for {result.processed} events")
    p50, p99 = np.quantile(samples, [0.5, 0.99]) if len(samples) else (0.0, 0.0)
    if expected is not None and result.digest != expected:
        problems.append(f"digest {result.digest[:12]} != recorded {expected[:12]}")
    return Unit(
        setup_s=probes.first_batch_at - started,
        work_s=finished - probes.first_batch_at,
        items=result.processed,
        attempted=offered,
        failed=offered - unserved if problems else 0,
        digest=result.digest,
        problems=problems,
        unserved=unserved,
        p50_s=float(p50),
        p99_s=float(p99),
    )


def load_population(seed: int, cache_dir: str) -> CheckInColumns:
    """The seed's population check-ins, read through the stage cache."""
    config = rebuild_config(seed)
    arrays = StageCache(cache_dir).load(population_key(config))
    if arrays is None:
        raise RuntimeError(f"population for seed {seed} is not in {cache_dir}")
    columns = PopulationColumns.from_arrays(arrays)
    if columns.n_users != config.n_users:
        raise RuntimeError("cached population has the wrong user count")
    return columns.checkins


def rebuild_pass(ck: CheckInColumns, seed: int, probes: Probes, workers: int) -> Unit:
    """One Table II pass over every user; checks one result per user."""
    chunks_before = probes.chunk_results
    samples_before = len(probes.latency)
    workload = table2.obfuscation_workload(ck, BUDGET, workers=workers, seed=seed)
    started = perf_counter()
    workload(ck.n_users)
    elapsed = perf_counter() - started
    chunk_s = np.frombuffer(probes.latency, dtype=np.float64)[samples_before:].copy()
    problems = []
    if probes.chunk_results - chunks_before != ck.n_users:
        problems.append("pass returned a result count different from the user count")
    return Unit(
        setup_s=0.0,
        work_s=elapsed,
        items=ck.n_users,
        attempted=ck.n_users,
        failed=ck.n_users if problems else 0,
        digest="",
        problems=problems,
        chunk_s=chunk_s,
    )


def rebuild_setup(seed: int, cache_dir: str, probes: Probes, workers: int) -> Tuple[CheckInColumns, Unit]:
    """Load the population and run the first pass: one ``setup_s`` sample."""
    started = perf_counter()
    ck = load_population(seed, cache_dir)
    unit = rebuild_pass(ck, seed, probes, workers)
    unit.setup_s = perf_counter() - started
    return ck, unit


def rebuild_digests(ck: CheckInColumns, seed: int, expected: Optional[str]) -> Tuple[str, List[str]]:
    """``obfuscation_digest`` at one and at two workers, against the record."""
    one = table2.obfuscation_digest(ck, ck.n_users, BUDGET, seed, workers=1)
    two = table2.obfuscation_digest(ck, ck.n_users, BUDGET, seed, workers=REBUILD_WORKERS)
    problems = []
    if one != two:
        problems.append(f"digest at 1 worker {one[:12]} != at 2 workers {two[:12]}")
    if expected is not None and one != expected:
        problems.append(f"digest {one[:12]} != recorded {expected[:12]}")
    return one, problems

