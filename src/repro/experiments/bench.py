"""Benchmark harness for the experiment pipelines.

Two jobs, both reachable through ``repro bench``:

* ``repro bench <experiment>`` — run a cache-aware experiment cold (cache
  cleared) and then warm (second run over the same cache), archive both
  as ``BENCH_<id>_cache_cold.json`` / ``BENCH_<id>_cache_warm.json``
  records (:mod:`repro.obs.record`), and print the warm speedup.  For
  the deterministic experiments the harness also asserts the cold and
  warm rows are bit-identical.  The table2 workload takes
  ``--tier small|city|metro-100k`` (named dataset tiers), ``--mode
  kernel|loop`` (population kernels vs the per-user reference path),
  ``--digest`` (attach the candidate sha256 — the worker-invariance
  witness; cold/warm digests must agree) and ``--trace`` (attach
  per-span timing summaries from ``repro.obs``); the bench id grows
  matching suffixes, e.g. ``BENCH_table2_city_kernel_cache_cold.json``.
* ``repro bench --compare OLD.json NEW.json`` — regression gate: exits
  non-zero when NEW's wall clock (overall or any shared stage) regresses
  more than ``--threshold`` (default 10 %) over OLD.  Both archives are
  read through :func:`repro.obs.record.load`; an archive of another
  schema exits non-zero with a message.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.data.cache import StageCache
from repro.data.plane import DataPlaneConfig, add_data_plane_arguments
from repro.experiments import (
    fig6_attack,
    fig7_mechanisms,
    fig9_efficacy,
    table2_obfuscation_time,
    table3_selection_time,
)
from repro.experiments.config import FULL, MEDIUM, SMALL, ExperimentScale
from repro.experiments.tables import ExperimentReport
from repro.obs import record as bench_record
from repro.obs import trace as _trace
from repro.obs.record import BenchRecord
from repro.obs.rss import peak_rss_bytes

__all__ = [
    "main",
    "compare_benches",
    "run_cold_warm",
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
) -> Tuple[BenchRecord, BenchRecord]:
    """Run ``exp_id`` cold (cleared cache) then warm; archive both runs.

    Returns the (cold, warm) records.  Raises ``RuntimeError``
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
    # Process-lifetime high-water mark (parent or any reaped pool worker):
    # the number that separates the out-of-core data plane from heap
    # materialisation at the big tiers.
    peak_rss = peak_rss_bytes(include_children=True)
    cold = bench_record.from_report(
        cold_report, cold_seconds, f"{bench_id}_cache_cold", cold_spans, peak_rss
    )
    warm = bench_record.from_report(
        warm_report, warm_seconds, f"{bench_id}_cache_warm", warm_spans, peak_rss
    )
    if results_dir is not None:
        for record in (cold, warm):
            bench_record.write(record, results_dir / record.filename)
    return cold, warm


def _gated_seconds(record: BenchRecord) -> Dict[str, float]:
    """The timings ``--compare`` gates, keyed by their report label.

    The wall clock, every ``stage_seconds`` entry and every span's
    ``seconds`` (the per-layer split); values that are not finite numbers
    are left out.
    """
    timings: Dict[str, Any] = {"wall_seconds": record.wall_seconds}
    for stage, seconds in sorted(record.stage_seconds.items()):
        timings[f"stage {stage!r}"] = seconds
    for name, span in sorted((record.spans or {}).items()):
        timings[f"span {name!r}"] = span.get("seconds")
    gated: Dict[str, float] = {}
    for label, value in timings.items():
        try:
            seconds = float(value)
        except (TypeError, ValueError):
            continue
        if np.isfinite(seconds):
            gated[label] = seconds
    return gated


def stage_key_notes(old: BenchRecord, new: BenchRecord) -> List[str]:
    """Non-fatal notes about stage and span keys the gate could not compare.

    A stage-version bump (or a renamed span) silently drops keys out of
    the OLD∩NEW intersection the regression gate walks; these notes make
    the uncomparable keys explicit so a "clean" comparison that actually
    compared nothing is visible in the gate's output.
    """
    notes: List[str] = []
    for field, noun in (("stage_seconds", "stages"), ("spans", "spans")):
        old_keys = getattr(old, field) or {}
        new_keys = getattr(new, field) or {}
        gone = sorted(set(old_keys) - set(new_keys))
        added = sorted(set(new_keys) - set(old_keys))
        if gone:
            notes.append(
                f"{noun} only in OLD (removed or renamed, not compared): "
                + ", ".join(repr(s) for s in gone)
            )
        if added:
            notes.append(
                f"{noun} only in NEW (added or renamed, not compared): "
                + ", ".join(repr(s) for s in added)
            )
        if field == "stage_seconds" and old_keys and new_keys and not (
            set(old_keys) & set(new_keys)
        ):
            notes.append(
                "no common stage keys — only the wall clock and shared spans were gated"
            )
    return notes


def compare_benches(
    old: BenchRecord,
    new: BenchRecord,
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
    min_abs_seconds: float = MIN_REGRESSION_SECONDS,
) -> List[str]:
    """Wall-clock regressions of ``new`` over ``old``; empty when clean.

    A regression is flagged when the overall wall clock, a stage, or a
    span (a layer of the run) present in both archives is both
    ``threshold`` fractionally slower *and* ``min_abs_seconds`` absolutely
    slower — the absolute floor keeps millisecond-scale stages from
    tripping the gate on scheduler noise.
    """
    old_seconds, new_seconds = _gated_seconds(old), _gated_seconds(new)
    problems = []
    for label, o in old_seconds.items():
        n = new_seconds.get(label)
        if n is None or not (n > o * (1.0 + threshold) and n - o > min_abs_seconds):
            continue
        growth = f"+{(n / o - 1.0) * 100.0:.1f}%" if o > 0 else "from zero"
        problems.append(f"{label}: {o:.3f}s -> {n:.3f}s ({growth})")
    return problems


def _cmd_compare(old_path: str, new_path: str, threshold: float) -> int:
    try:
        old, new = bench_record.load(old_path), bench_record.load(new_path)
    except ValueError as exc:
        print(f"repro bench: error: {exc}", file=sys.stderr)
        return 2
    problems = compare_benches(old, new, threshold)
    label = f"{old.experiment_id} -> {new.experiment_id}"
    for note in stage_key_notes(old, new):
        print(f"note ({label}): {note}")
    if problems:
        print(f"REGRESSION ({label}):")
        for p in problems:
            print(f"  {p}")
        return 1
    old_wall, new_wall = old.wall_seconds, new.wall_seconds
    if isinstance(old_wall, (int, float)) and isinstance(new_wall, (int, float)):
        print(f"ok ({label}): {old_wall:.3f}s -> {new_wall:.3f}s")
    else:
        print(f"ok ({label})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro bench`` / ``python -m repro.experiments.bench``."""
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="cache benchmarks and the regression gate",
    )
    parser.add_argument(
        "target",
        nargs="?",
        choices=sorted(BENCH_RUNNERS),
        help="experiment to bench cold-then-warm",
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
        parser.error("give an experiment target or --compare OLD NEW")
    try:
        plane = DataPlaneConfig.from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    if not plane.cache:
        parser.error("benches measure the stage cache; --no-cache is meaningless")

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
        cold.wall_seconds / warm.wall_seconds if warm.wall_seconds > 0 else float("inf")
    )
    print(
        f"{args.target}: cold {cold.wall_seconds:.3f}s, "
        f"warm {warm.wall_seconds:.3f}s ({speedup:.1f}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
