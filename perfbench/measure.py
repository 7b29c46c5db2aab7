"""Measure one workload for one seed; the last stdout line is the result.

Run by ``run.py`` in a fresh process, so the peak RSS it reports covers
this measurement only::

    python3 perfbench/measure.py --workload serve-churn --seed 0 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
traced phases and prints the per-layer metrics.  Exit status 1 means an
output check failed (the result line then says ``"correct": false``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from probes import Probes, Tracer, perf_counter  # noqa: E402
from repro.data.columns import CheckInColumns  # noqa: E402

#: End-to-end metric units (the names BENCHMARK.json lists).
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "lat_p50_ms": "ms",
    "lat_p99_ms": "ms",
    "peak_rss_mib": "MiB",
}

#: Per-layer metric units, in BENCHMARK.json order.
PER_LAYER = {
    "events.build_s": "s",
    "ingress.put_wait_s": "s",
    "ingress.high_water": "count",
    "service.loop_s": "s",
    "dispatch.roundtrip_s": "s",
    "dispatch.overhead_s": "s",
    "dispatch.events_per_batch": "count",
    "shard.busy_s": "s",
    "actor.handle_s": "s",
    "actor.created": "count",
    "location.record_s": "s",
    "location.window_closes": "count",
    "profiles.build_s": "s",
    "obfuscation.pin_s": "s",
    "obfuscation.pins": "count",
    "obfuscation.lookup_s": "s",
    "selection.select_s": "s",
    "selection.selects": "count",
    "nomadic.obfuscate_s": "s",
    "nomadic.releases": "count",
    "ads.handle_s": "s",
    "ads.returned": "count",
    "aoi.filter_s": "s",
    "aoi.kept_ratio": "ratio",
    "egress.encode_s": "s",
    "egress.digest_s": "s",
    "obs.collect_s": "s",
    "obs.merge_s": "s",
    "fleet.before_event_s": "s",
    "fleet.snapshot_s": "s",
    "fleet.snapshots": "count",
    "fleet.restore_s": "s",
    "fleet.restores": "count",
    "fleet.shard_checkpoint_s": "s",
    "fleet.audit_s": "s",
    "fleet.unserved": "count",
    "transport.export_s": "s",
    "transport.shm_bytes": "bytes",
    "transport.pickle_bytes": "bytes",
    "transport.mmap_bytes": "bytes",
    "pool.spawn_s": "s",
    "pool.map_s": "s",
    "pool.overhead_s": "s",
    "pool.chunk_skew": "ratio",
    "data.load_s": "s",
    "data.bytes": "bytes",
    "kernels.profiles_s": "s",
    "kernels.eta_s": "s",
    "kernels.pin_s": "s",
    "kernels.users": "count",
    "gc.pause_s": "s",
    "gc.pause_max_ms": "ms",
    "gc.gen2_collections": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}

#: Per-layer ``*_s`` metrics that are a span's self time, by span name.
SELF_TIME = {
    "events.build_s": "events.build",
    "service.loop_s": "service.loop",
    "actor.handle_s": "actor.handle",
    "location.record_s": "location.record",
    "profiles.build_s": "profiles.build",
    "obfuscation.pin_s": "obfuscation.pin",
    "obfuscation.lookup_s": "obfuscation.lookup",
    "selection.select_s": "selection.select",
    "nomadic.obfuscate_s": "nomadic.obfuscate",
    "ads.handle_s": "ads.handle",
    "aoi.filter_s": "aoi.filter",
    "egress.encode_s": "egress.encode",
    "egress.digest_s": "egress.digest",
    "obs.collect_s": "obs.collect",
    "obs.merge_s": "obs.merge",
    "fleet.before_event_s": "fleet.before_event",
    "fleet.snapshot_s": "fleet.snapshot",
    "fleet.restore_s": "fleet.restore",
    "fleet.shard_checkpoint_s": "fleet.shard_checkpoint",
    "fleet.audit_s": "fleet.audit",
    "data.load_s": "data.load",
    "kernels.profiles_s": "kernels.profiles",
    "kernels.eta_s": "kernels.eta",
    "kernels.pin_s": "kernels.pin",
}

#: Root spans the benchmark itself opens; their self time is unattributed.
ROOTS = ("bench.replay", "bench.setup", "bench.pass")


@dataclass
class Phase:
    """The units one phase measured, and the probes that watched it."""

    probes: Probes
    #: Units that count towards throughput and latency.
    units: List[wl.Unit] = field(default_factory=list)
    #: Rebuild set-ups (population load plus first pass).
    setups: List[wl.Unit] = field(default_factory=list)

    @property
    def all_units(self) -> List[wl.Unit]:
        return self.setups + self.units

    @property
    def problems(self) -> List[str]:
        return [p for u in self.all_units for p in u.problems]

    def throughput(self) -> float:
        return statistics.median(u.items / u.work_s for u in self.units if u.work_s > 0)


def _measure_unit(probes: Probes, root: str, run: Callable[[], Any]) -> Any:
    """Run one unit from a settled heap, in a root span when tracing."""
    probes.settle()
    tracer = probes.tracer
    if tracer is None:
        return run()
    index = tracer.begin(tracer.name_id(root))
    try:
        return run()
    finally:
        tracer.finish(index)


def serve_phase(
    name: str, seed: int, seconds: float, use_processes: bool, traced: bool,
    expected: Optional[str], min_units: int,
) -> Phase:
    """Replay the serve workload until ``seconds`` have passed."""
    inputs = wl.serve_inputs(name, seed)
    spool = OUT / f"spool-{os.getpid()}"
    spool.mkdir(parents=True, exist_ok=True)
    probes = Probes(str(spool))
    phase = Phase(probes)
    with probes:
        probes.install(wl.always_on(probes, name))
        if traced:
            probes.tracer = Tracer()
            probes.install(wl.traced(probes, name))
        started = perf_counter()
        while len(phase.units) < min_units or perf_counter() - started < seconds:
            unit = _measure_unit(probes, "bench.replay", lambda: wl.serve_replay(
                inputs, probes, use_processes, expected))
            phase.units.append(unit)
            expected = expected or unit.digest
    shutil.rmtree(spool, ignore_errors=True)
    return phase


def rebuild_phase(
    seed: int, seconds: float, workers: int, traced: bool, setups: int,
) -> Tuple[Phase, CheckInColumns]:
    """``setups`` timed set-ups, then passes until ``seconds`` have passed."""
    probes = Probes()
    phase = Phase(probes)
    with probes:
        probes.install(wl.always_on(probes, "rebuild-metro"))
        if traced:
            probes.tracer = Tracer()
            probes.install(wl.traced(probes, "rebuild-metro"))
        for _ in range(setups):
            ck, unit = _measure_unit(probes, "bench.setup", lambda: wl.rebuild_setup(
                seed, str(OUT / "cache"), probes, workers))
            phase.setups.append(unit)
        started = perf_counter()
        while not phase.units or perf_counter() - started < seconds:
            phase.units.append(_measure_unit(probes, "bench.pass", lambda: wl.rebuild_pass(
                ck, seed, probes, workers)))
    return phase, ck


def faster_half(units: List[wl.Unit]) -> List[wl.Unit]:
    """The faster half of a run's units, by time per item.

    On a shared host, slow periods of tens of seconds slow every unit
    inside them; medians over the faster half track the program rather
    than how much of the run such a period covered.
    """
    ranked = sorted(units, key=lambda u: u.work_s / u.items)
    return ranked[: (len(ranked) + 1) // 2]


def _faster_half_median(values: List[float]) -> float:
    ranked = sorted(values)
    return statistics.median(ranked[: (len(ranked) + 1) // 2])


def peak_rss_mib(workers: int) -> float:
    """This process's peak RSS plus ``workers`` times the largest worker peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * children) / 1024.0


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------


def end_to_end(name: str, seed: int, seconds: float, book: wl.DigestBook) -> Tuple[Dict[str, float], List[wl.Unit], List[str], Dict[str, float]]:
    expected = book.expected(name, seed)
    extra: Dict[str, float] = {}
    if name == "rebuild-metro":
        phase, ck = rebuild_phase(seed, seconds, wl.REBUILD_WORKERS, False, wl.REBUILD_SETUPS)
        digest, problems = wl.rebuild_digests(ck, seed, expected)
        setup_units = phase.setups
        fast = faster_half(phase.units)
        # A pass has only 32 chunks: p99 over every chunk of the faster half.
        chunks = np.concatenate([u.chunk_s for u in fast])
        p50 = _faster_half_median([float(np.median(u.chunk_s)) for u in phase.units]) * 1e3
        p99 = float(np.quantile(chunks, 0.99)) * 1e3
        extra["latency_samples"] = len(chunks)
    else:
        phase = serve_phase(
            name, seed, seconds, wl.serve_inputs(name, seed).use_processes, False,
            expected, wl.MIN_REPLAYS,
        )
        digest = phase.units[0].digest
        problems = []
        setup_units = phase.units
        fast = faster_half(phase.units)
        # A replay has 5k+ events: quantiles per replay, then the median
        # over the replays with the lower half of each quantile.
        p50 = _faster_half_median([u.p50_s for u in phase.units]) * 1e3
        p99 = _faster_half_median([u.p99_s for u in phase.units]) * 1e3
        extra["latency_samples"] = sum(u.items for u in fast)
        extra["unserved"] = sum(u.unserved for u in phase.units)
    setup = _faster_half_median([u.setup_s for u in setup_units])
    problems = phase.problems + problems
    if not problems:
        book.remember(name, seed, digest)
    metrics = {
        "setup_s": setup,
        "throughput_per_s": statistics.median(u.items / u.work_s for u in fast),
        "lat_p50_ms": float(p50),
        "lat_p99_ms": float(p99),
        "peak_rss_mib": peak_rss_mib(wl.WORKERS[name]),
    }
    extra["units"] = len(phase.units)
    return metrics, phase.all_units, problems, extra


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def _reconcile(tracer: Tracer) -> Tuple[Dict[str, Tuple[float, float, int]], float, float, List[str]]:
    """Self times by name, traced wall, unattributed; checks they add up."""
    times = tracer.self_times()
    wall = tracer.root_seconds()
    unattributed = sum(times[r][0] for r in ROOTS if r in times)
    named = sum(t[0] for n, t in times.items() if n not in ROOTS)
    problems = []
    if abs(named + unattributed - wall) > 1e-6 * max(wall, 1.0):
        problems.append(f"self times {named + unattributed:.6f}s != traced wall {wall:.6f}s")
    negative = [n for n, t in times.items() if t[0] < -1e-6]
    if negative:
        problems.append(f"negative self time in {negative}")
    return times, wall, unattributed, problems


def traced_run(name: str, seed: int, seconds: float, book: wl.DigestBook) -> Tuple[Dict[str, float], List[wl.Unit], List[str], Dict[str, float]]:
    """Phases: A = end-to-end configuration, traced in the measuring process
    only (dispatch, transport and pool costs seen from the parent);
    B = in-process configuration, untraced (GC, and the base of the tracing
    overhead); C = in-process configuration, traced (the layer split)."""
    expected = book.expected(name, seed)
    metrics = {m: 0.0 for m in PER_LAYER}
    problems: List[str] = []
    split_seconds = seconds / 3.0
    units: List[wl.Unit] = []
    if name == "rebuild-metro":
        a, ck = rebuild_phase(seed, split_seconds, wl.REBUILD_WORKERS, True, 1)
        b, _ = rebuild_phase(seed, split_seconds, 1, False, 1)
        c, _ = rebuild_phase(seed, split_seconds, 1, True, 1)
        digest, digest_problems = wl.rebuild_digests(ck, seed, expected)
        problems += digest_problems
    else:
        e2e_processes = wl.serve_inputs(name, seed).use_processes
        a = None
        if e2e_processes:
            a = serve_phase(name, seed, split_seconds, True, True, expected, 1)
        b = serve_phase(name, seed, split_seconds, False, False, expected, 1)
        c = serve_phase(name, seed, split_seconds, False, True, expected, 1)
        digests = {u.digest for p in (a, b, c) if p is not None for u in p.units}
        if len(digests) != 1:
            problems.append(f"traced and untraced digests differ: {sorted(digests)}")
        digest = digests.pop() if len(digests) == 1 else ""
    for p in (a, b, c):
        if p is not None:
            problems += p.problems
            units += p.all_units

    times, wall, unattributed, reconcile_problems = _reconcile(c.probes.tracer)
    problems += reconcile_problems
    absent = (0.0, 0.0, 0)
    for metric, span_name in SELF_TIME.items():
        metrics[metric] = times.get(span_name, absent)[0]
    metrics["shard.busy_s"] = times.get("shard.process", absent)[1]
    for metric, span_name in (("selection.selects", "selection.select"),
                              ("nomadic.releases", "nomadic.obfuscate"),
                              ("fleet.snapshots", "fleet.snapshot"),
                              ("fleet.restores", "fleet.restore")):
        metrics[metric] = float(times.get(span_name, absent)[2])
    counters = c.probes.counters
    for key in ("actor.created", "location.window_closes", "obfuscation.pins",
                "ads.returned", "data.bytes", "kernels.users"):
        metrics[key] = counters.get(key, 0.0)
    if counters.get("aoi.received"):
        metrics["aoi.kept_ratio"] = counters["aoi.delivered"] / counters["aoi.received"]
    metrics["fleet.unserved"] = float(sum(u.unserved for u in c.units))
    metrics["ingress.put_wait_s"] = c.probes.put_wait_s
    metrics["ingress.high_water"] = float(c.probes.high_water)

    # Parent-side costs of the end-to-end configuration.
    e2e = a if a is not None else c
    if e2e.probes.batches:
        metrics["dispatch.events_per_batch"] = e2e.probes.batch_events / e2e.probes.batches
    if a is not None:
        a_times, _, _, a_problems = _reconcile(a.probes.tracer)
        problems += a_problems
        metrics["transport.export_s"] = a_times.get("transport.export", absent)[0]
        for key in ("transport.shm_bytes", "transport.pickle_bytes", "transport.mmap_bytes"):
            metrics[key] = a.probes.counters.get(key, 0.0)
        metrics["pool.spawn_s"] = float(sum(a.probes.spawns))
        if name == "rebuild-metro":
            metrics["pool.map_s"] = a_times.get("pool.map", absent)[0]
            passes = a.probes.pool_passes
            metrics["pool.overhead_s"] = float(sum(w - s / n for w, s, _, _, n in passes))
            metrics["pool.chunk_skew"] = statistics.median(mx / md for _, _, mx, md, _ in passes)
        else:
            roundtrip = float(sum(a.probes.dispatches))
            metrics["dispatch.roundtrip_s"] = roundtrip
            metrics["dispatch.overhead_s"] = roundtrip - a.probes.worker_busy_s

    metrics["gc.pause_s"] = b.probes.gc.pause_s
    metrics["gc.pause_max_ms"] = b.probes.gc.pause_max_s * 1e3
    metrics["gc.gen2_collections"] = float(b.probes.gc.gen2)
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = unattributed
    metrics["trace.overhead_ratio"] = b.throughput() / c.throughput()
    metrics["trace.spans"] = float(len(c.probes.tracer))

    traces = OUT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    for label, p in (("parent", a), ("split", c)):
        if p is not None:
            p.probes.tracer.write(str(traces / f"{name}-seed{seed}-{label}.npz"))
    if not problems:
        book.remember(name, seed, digest)
    extra = {
        "traced_wall_s": wall,
        "self_plus_unattributed_s": sum(t[0] for t in times.values()),
        "untraced_throughput_per_s": b.throughput(),
        "traced_throughput_per_s": c.throughput(),
    }
    return metrics, units, problems, extra


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT.mkdir(parents=True, exist_ok=True)
    book = wl.DigestBook(str(OUT / "digests-seen.json"))
    run = traced_run if args.trace else end_to_end
    units_table = PER_LAYER if args.trace else END_TO_END
    try:
        metrics, units, problems, extra = run(args.workload, args.seed, args.seconds, book)
    except Exception:
        # A raise inside the program fails the whole run: report it as a
        # result with every operation failed rather than as a bare crash.
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {
            k: {"value": 0.0, "unit": u} for k, u in units_table.items()}}))
        return 1
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    if problems and not failed:
        failed = attempted
    for key, value in extra.items():
        print(f"{args.workload} seed={args.seed} {key} {value:.6g}")
    rates = " ".join(f"{u.items / u.work_s:.6g}" for u in units if u.work_s > 0)
    print(f"{args.workload} seed={args.seed} unit_rates_per_s {rates}")
    print(f"{args.workload} seed={args.seed} fail_ratio {failed / max(attempted, 1):.6g} ratio")
    for key, value in metrics.items():
        print(f"{args.workload} seed={args.seed} {key} {value:.6g} {units_table[key]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units_table[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
