"""Benchmark harness for the experiment pipelines.

Three jobs, all reachable through ``repro bench``:

* ``repro bench <experiment>`` — run a cache-aware experiment cold (cache
  cleared) and then warm (second run over the same cache), archive both
  as ``BENCH_<id>_cache_cold.json`` / ``BENCH_<id>_cache_warm.json`` in
  the same shape as the pytest-benchmark archives, and print the warm
  speedup.  For the deterministic experiments the harness also asserts
  the cold and warm rows are bit-identical.  The table2 workload takes
  ``--tier small|city|metro-100k`` (named dataset tiers), ``--mode
  kernel|loop`` (population kernels vs the per-user reference path),
  ``--digest`` (attach the candidate sha256 — the worker-invariance
  witness; cold/warm digests must agree) and ``--trace`` (attach
  per-span timing summaries from ``repro.obs``); the bench id grows
  matching suffixes, e.g. ``BENCH_table2_city_kernel_cache_cold.json``.
* ``repro bench shm`` — measure the worker payload transport: ship one
  large heap array to a process pool and archive the bytes copied into
  shared memory, the bytes pickled, and the wall clock.
* ``repro bench --compare OLD.json NEW.json`` — regression gate: exits
  non-zero when NEW's wall clock (overall or any shared stage) regresses
  more than ``--threshold`` (default 10 %) over OLD.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pickle
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.data.cache import StageCache
from repro.data.plane import DataPlaneConfig, add_data_plane_arguments
from repro.data.tiers import TIERS
from repro.experiments import (
    fig6_attack,
    fig7_mechanisms,
    fig9_efficacy,
    table2_obfuscation_time,
    table3_selection_time,
)
from repro.experiments.config import FULL, MEDIUM, SMALL, ExperimentScale
from repro.experiments.tables import ExperimentReport
from repro.obs import trace as _trace
from repro.obs.rss import peak_rss_bytes
from repro.parallel import export_payload, parallel_map_with_stats

__all__ = [
    "main",
    "compare_benches",
    "run_cold_warm",
    "run_shm_bench",
    "BENCH_RUNNERS",
    "DEFAULT_REGRESSION_THRESHOLD",
    "MIN_REGRESSION_SECONDS",
]

SCALES: Dict[str, ExperimentScale] = {s.name: s for s in (SMALL, MEDIUM, FULL)}

#: Wall-clock regressions beyond this fraction fail ``--compare``.
DEFAULT_REGRESSION_THRESHOLD = 0.10

#: Stages faster than this are pure noise at CI runner granularity;
#: regressions must also exceed it in absolute terms to fail the gate.
MIN_REGRESSION_SECONDS = 0.05

#: Cache-aware experiment drivers: id -> run(scale, workers, cache).
BENCH_RUNNERS: Dict[
    str, Callable[[ExperimentScale, Optional[int], StageCache], ExperimentReport]
] = {
    "fig6": lambda scale, workers, cache: fig6_attack.run(
        scale, workers=workers, cache=cache
    ),
    "fig7": lambda scale, workers, cache: fig7_mechanisms.run(
        scale, workers=workers, cache=cache
    ),
    "fig9": lambda scale, workers, cache: fig9_efficacy.run(
        scale, workers=workers, cache=cache
    ),
    "table2": lambda scale, workers, cache: table2_obfuscation_time.run(
        scale, workers=workers, cache=cache
    ),
    "table3": lambda scale, workers, cache: table3_selection_time.run(
        scale, workers=workers, cache=cache
    ),
}

#: Experiments whose rows are pure functions of the seed (the timing
#: tables measure wall clock, which never replays identically).
DETERMINISTIC_ROWS = frozenset({"fig6", "fig7", "fig9"})


def _payload(
    report: ExperimentReport,
    bench_id: str,
    wall_seconds: float,
    scale: ExperimentScale,
    spans: Optional[Dict[str, dict]] = None,
) -> dict:
    """One archive entry, same shape as ``benchmarks/conftest.py`` writes.

    A table2 ``--tier`` run measures the tier's population, not the
    scale preset's: its ``scale`` entry names the tier and the tier's
    user count, and keeps only the seed from the preset.
    """
    tier = report.meta.get("tier")
    scale_meta = (
        dataclasses.asdict(scale)
        if tier is None
        else {"name": tier, "n_users": TIERS[tier].n_users, "seed": scale.seed}
    )
    out = {
        "experiment_id": bench_id,
        "title": report.title,
        "wall_seconds": wall_seconds,
        "workers": report.meta.get("workers"),
        "scale": scale_meta,
        "stage_seconds": report.meta.get("stage_seconds", {}),
        "cache": report.meta.get("cache"),
        "rows": report.rows,
        "notes": report.notes,
        # Process-lifetime high-water mark (parent or any reaped pool
        # worker): the number that separates the out-of-core data plane
        # from heap materialisation at the big tiers.
        "peak_rss_bytes": peak_rss_bytes(include_children=True),
    }
    for key in ("mode", "tier", "mmap", "digest"):
        if report.meta.get(key) is not None:
            out[key] = report.meta[key]
    if spans is not None:
        out["spans"] = spans
    return out


def _summarise_spans(spans: List[dict]) -> Dict[str, dict]:
    """Aggregate raw span records to per-name count/total-seconds."""
    summary: Dict[str, dict] = {}
    for record in spans:
        entry = summary.setdefault(record["name"], {"count": 0, "seconds": 0.0})
        entry["count"] += 1
        entry["seconds"] += float(record["seconds"])
    for entry in summary.values():
        entry["seconds"] = round(entry["seconds"], 6)
    return summary


def _archive(payload: dict, results_dir: Path) -> Path:
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"BENCH_{payload['experiment_id']}.json"
    path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    return path


def _timed_run(
    runner: Callable[[ExperimentScale, Optional[int], StageCache], ExperimentReport],
    scale: ExperimentScale,
    workers: Optional[int],
    cache: StageCache,
    with_spans: bool,
) -> Tuple[ExperimentReport, float, Optional[Dict[str, dict]]]:
    start = time.perf_counter()
    if with_spans:
        with _trace.collect() as obs:
            report = runner(scale, workers, cache)
        spans: Optional[Dict[str, dict]] = _summarise_spans(obs.spans)
    else:
        report = runner(scale, workers, cache)
        spans = None
    return report, time.perf_counter() - start, spans


def run_cold_warm(
    exp_id: str,
    scale: ExperimentScale,
    workers: Optional[int] = 1,
    cache_dir: Optional[Path] = None,
    results_dir: Optional[Path] = None,
    tier: Optional[str] = None,
    mode: Optional[str] = None,
    with_digest: bool = False,
    with_spans: bool = False,
    mmap: bool = False,
) -> Tuple[dict, dict]:
    """Run ``exp_id`` cold (cleared cache) then warm; archive both runs.

    Returns the (cold, warm) archive payloads.  Raises ``RuntimeError``
    if a deterministic experiment's warm rows differ from its cold rows —
    a cache hit must be indistinguishable from a recompute.

    ``tier``/``mode``/``with_digest``/``mmap`` parameterise the table2
    workload (dataset tier, kernel-vs-loop execution, candidate digest,
    out-of-core serving); the bench id grows matching suffixes so each
    combination archives separately.  ``with_spans`` wraps both runs in
    the observability collector and attaches per-span-name timing
    summaries.
    """
    if exp_id not in BENCH_RUNNERS:
        raise ValueError(
            f"unknown cache-aware experiment {exp_id!r}; "
            f"choose from {sorted(BENCH_RUNNERS)}"
        )
    if tier is not None or mode is not None or with_digest or mmap:
        if exp_id != "table2":
            raise ValueError("tier/mode/digest/mmap options only apply to table2")
        if mmap and tier is None:
            raise ValueError("--mmap needs a --tier (only tiers are mmap-served)")

        def runner(
            scale: ExperimentScale, workers: Optional[int], cache: StageCache
        ) -> ExperimentReport:
            return table2_obfuscation_time.run(
                scale,
                workers=workers,
                cache=cache,
                tier=tier,
                mode=mode or "kernel",
                with_digest=with_digest,
                mmap=mmap,
            )

        bench_id = "_".join(
            [exp_id]
            + ([tier] if tier else [])
            + ([mode] if mode else [])
            + (["mmap"] if mmap else [])
        )
    else:
        runner = BENCH_RUNNERS[exp_id]
        bench_id = exp_id
    cache = StageCache(cache_dir)
    cache.clear()

    cold_report, cold_seconds, cold_spans = _timed_run(
        runner, scale, workers, cache, with_spans
    )
    warm_cache = StageCache(cache_dir)
    warm_report, warm_seconds, warm_spans = _timed_run(
        runner, scale, workers, warm_cache, with_spans
    )

    if exp_id in DETERMINISTIC_ROWS and warm_report.rows != cold_report.rows:
        raise RuntimeError(
            f"{exp_id}: warm-cache rows differ from cold-cache rows — "
            "a stage cache entry is not bit-identical to its recompute"
        )
    cold_digest = cold_report.meta.get("digest")
    warm_digest = warm_report.meta.get("digest")
    if cold_digest is not None and cold_digest != warm_digest:
        raise RuntimeError(
            f"{exp_id}: warm-cache candidate digest differs from cold — "
            "the cached tier is not bit-identical to its regeneration"
        )
    cold = _payload(
        cold_report, f"{bench_id}_cache_cold", cold_seconds, scale, cold_spans
    )
    warm = _payload(
        warm_report, f"{bench_id}_cache_warm", warm_seconds, scale, warm_spans
    )
    if results_dir is not None:
        _archive(cold, results_dir)
        _archive(warm, results_dir)
    return cold, warm


def _shm_probe_chunk(indices: List[int], rng: np.random.Generator, payload) -> list:
    """Touch every shipped array so transport cost is actually paid."""
    coords = payload["coords"]
    return [float(coords[i % len(coords)].sum()) for i in indices]


def run_shm_bench(
    n_points: int = 500_000,
    n_tasks: int = 64,
    workers: int = 2,
    results_dir: Optional[Path] = None,
) -> dict:
    """Ship one large heap array to a process pool and meter the transport.

    The payload is deterministic (an ``arange`` grid), so the pooled
    results must equal the serial ones; the archived metrics are the
    bytes copied into shared memory (one copy, whatever the worker
    count), the bytes pickled into the pool initializer, and the
    fan-out's wall clock.
    """
    coords = np.arange(n_points * 2, dtype=np.float64).reshape(n_points, 2)
    payload = {"coords": coords}
    serial = parallel_map_with_stats(
        _shm_probe_chunk, range(n_tasks), workers=1, seed=0, payload=payload
    )[0]
    start = time.perf_counter()
    pooled, stats = parallel_map_with_stats(
        _shm_probe_chunk, range(n_tasks), workers=workers, seed=0, payload=payload
    )
    wall_seconds = time.perf_counter() - start
    if pooled != serial:
        raise RuntimeError("pooled fan-out returned different results than serial")
    result = {
        "experiment_id": "shm_fanout",
        "title": "worker payload transport: heap array shipped by path+offset",
        "workers": workers,
        "n_points": n_points,
        "payload_nbytes": int(coords.nbytes),
        "pool_used": stats.pool_used,
        "wall_seconds": wall_seconds,
        "shared_arrays": stats.shared_arrays,
        "shared_bytes": stats.shared_bytes,
        "pickled_payload_bytes": _exported_pickle_bytes(payload),
        "notes": [
            "identical results to the serial path (asserted)",
            "the heap array is copied once into a shared-memory segment; "
            "workers map its tmpfs path instead of unpickling a copy each",
        ],
    }
    if results_dir is not None:
        _archive(result, results_dir)
    return result


def _exported_pickle_bytes(payload: dict) -> int:
    """Bytes the pool pickles once the large arrays ship as refs."""
    exported, lease = export_payload(payload)
    try:
        return len(pickle.dumps(exported))
    finally:
        lease.release()


def _stage_regressions(
    old: dict, new: dict, threshold: float, min_abs: float
) -> List[str]:
    problems = []
    old_wall = old.get("wall_seconds")
    new_wall = new.get("wall_seconds")
    if (
        isinstance(old_wall, (int, float))
        and isinstance(new_wall, (int, float))
        and np.isfinite(old_wall)
        and np.isfinite(new_wall)
        and new_wall > old_wall * (1.0 + threshold)
        and new_wall - old_wall > min_abs
    ):
        problems.append(
            f"wall_seconds: {old_wall:.3f}s -> {new_wall:.3f}s "
            f"(+{(new_wall / old_wall - 1.0) * 100.0:.1f}%)"
        )
    old_stages = old.get("stage_seconds") or {}
    new_stages = new.get("stage_seconds") or {}
    if not isinstance(old_stages, dict):
        old_stages = {}
    if not isinstance(new_stages, dict):
        new_stages = {}
    for stage in sorted(set(old_stages) & set(new_stages)):
        try:
            o, n = float(old_stages[stage]), float(new_stages[stage])
        except (TypeError, ValueError):
            continue
        if n > o * (1.0 + threshold) and n - o > min_abs:
            problems.append(
                f"stage {stage!r}: {o:.3f}s -> {n:.3f}s "
                f"(+{(n / o - 1.0) * 100.0:.1f}%)"
            )
    return problems


def stage_key_notes(old: dict, new: dict) -> List[str]:
    """Non-fatal notes about stage keys the gate could not compare.

    A stage-version bump (or a renamed span) silently drops keys out of
    the OLD∩NEW intersection the regression gate walks; these notes make
    the uncomparable keys explicit so a "clean" comparison that actually
    compared nothing is visible in the gate's output.
    """
    old_stages = old.get("stage_seconds") or {}
    new_stages = new.get("stage_seconds") or {}
    if not isinstance(old_stages, dict) or not isinstance(new_stages, dict):
        return ["stage_seconds is not a mapping in one archive; stages not compared"]
    notes: List[str] = []
    gone = sorted(set(old_stages) - set(new_stages))
    added = sorted(set(new_stages) - set(old_stages))
    if gone:
        notes.append(
            "stages only in OLD (removed or renamed, not compared): "
            + ", ".join(repr(s) for s in gone)
        )
    if added:
        notes.append(
            "stages only in NEW (added or renamed, not compared): "
            + ", ".join(repr(s) for s in added)
        )
    if old_stages and new_stages and not (set(old_stages) & set(new_stages)):
        notes.append(
            "no common stage keys — only the overall wall clock was gated"
        )
    return notes


def compare_benches(
    old: dict,
    new: dict,
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
    min_abs_seconds: float = MIN_REGRESSION_SECONDS,
) -> List[str]:
    """Wall-clock regressions of ``new`` over ``old``; empty when clean.

    A regression is flagged when a stage (or the overall wall clock) is
    both ``threshold`` fractionally slower *and* ``min_abs_seconds``
    absolutely slower — the absolute floor keeps millisecond-scale stages
    from tripping the gate on scheduler noise.
    """
    return _stage_regressions(old, new, threshold, min_abs_seconds)


def _cmd_compare(old_path: str, new_path: str, threshold: float) -> int:
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    problems = compare_benches(old, new, threshold)
    label = f"{old.get('experiment_id', old_path)} -> {new.get('experiment_id', new_path)}"
    for note in stage_key_notes(old, new):
        print(f"note ({label}): {note}")
    if problems:
        print(f"REGRESSION ({label}):")
        for p in problems:
            print(f"  {p}")
        return 1
    old_wall, new_wall = old.get("wall_seconds"), new.get("wall_seconds")
    if isinstance(old_wall, (int, float)) and isinstance(new_wall, (int, float)):
        print(f"ok ({label}): {old_wall:.3f}s -> {new_wall:.3f}s")
    else:
        print(f"ok ({label})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro bench`` / ``python -m repro.experiments.bench``."""
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="cache/transport benchmarks and the regression gate",
    )
    parser.add_argument(
        "target",
        nargs="?",
        choices=sorted(BENCH_RUNNERS) + ["shm"],
        help="experiment to bench cold-then-warm, or 'shm' for the "
        "payload-transport bench",
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD.json", "NEW.json"),
        help="compare two bench archives; non-zero exit on regression",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_REGRESSION_THRESHOLD,
        help="fractional wall-clock regression tolerated by --compare "
        f"(default: {DEFAULT_REGRESSION_THRESHOLD})",
    )
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="small", help="experiment scale"
    )
    # Benches always cache (cold-then-warm is the point), default to one
    # worker for stable timings.
    add_data_plane_arguments(parser, default_workers=1, default_cache=True)
    parser.add_argument(
        "--mode",
        choices=("kernel", "loop"),
        default=None,
        help="table2 execution mode: population kernels or the per-user loop",
    )
    parser.add_argument(
        "--digest",
        action="store_true",
        help="attach the (untimed) table2 candidate digest to the archives",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="collect repro.obs span timings into the archives",
    )
    parser.add_argument(
        "--results-dir",
        type=Path,
        default=Path("benchmarks") / "results",
        help="where BENCH_*.json archives land (default: benchmarks/results)",
    )
    args = parser.parse_args(argv)

    if args.compare is not None:
        return _cmd_compare(args.compare[0], args.compare[1], args.threshold)
    if args.target is None:
        parser.error("give an experiment/shm target or --compare OLD NEW")
    try:
        plane = DataPlaneConfig.from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    if not plane.cache:
        parser.error("benches measure the stage cache; --no-cache is meaningless")

    if args.target == "shm":
        result = run_shm_bench(
            workers=max(plane.workers or 1, 2), results_dir=args.results_dir
        )
        print(
            f"shm fan-out: {result['shared_bytes']} bytes shared, "
            f"{result['pickled_payload_bytes']} pickled, "
            f"{result['wall_seconds']:.3f}s"
        )
        return 0

    cold, warm = run_cold_warm(
        args.target,
        SCALES[args.scale],
        workers=plane.workers,
        cache_dir=plane.cache_dir,
        results_dir=args.results_dir,
        tier=plane.tier,
        mode=args.mode,
        mmap=plane.mmap,
        with_digest=args.digest,
        with_spans=args.trace,
    )
    speedup = (
        cold["wall_seconds"] / warm["wall_seconds"]
        if warm["wall_seconds"] > 0
        else float("inf")
    )
    print(
        f"{args.target}: cold {cold['wall_seconds']:.3f}s, "
        f"warm {warm['wall_seconds']:.3f}s ({speedup:.1f}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
