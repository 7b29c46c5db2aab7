"""Command-line runner for every reproduced table and figure.

Usage::

    python -m repro.experiments.runner all --scale small
    python -m repro.experiments.runner fig6 fig7 --scale medium
    python -m repro.experiments.runner table2 --scale full --workers 4

``--scale`` picks the trial/population budget; ``full`` matches the
paper's own 100,000-trial, 37,262-user settings.  ``--workers`` sizes
the process pool for the parallelizable experiments (default: all
cores); any worker count produces bit-identical report rows at the
same seed.  ``--cache`` reuses content-addressed stage artifacts under
``benchmarks/results/cache/`` (also bit-identical — a hit returns the
exact arrays a recompute would).

:func:`main` only parses arguments; :func:`run_experiments` validates
the request and runs it, and ``repro experiments`` calls it directly
with its own parsed :class:`~repro.data.plane.DataPlaneConfig`.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.data.plane import DataPlaneConfig, add_data_plane_arguments
from repro.experiments import (
    ext_adaptive,
    fig2_mobility,
    fig3_entropy,
    fig4_case_study,
    fig6_attack,
    fig7_mechanisms,
    fig8_min_utilization,
    fig9_efficacy,
    table1_limits,
    table2_obfuscation_time,
    table3_selection_time,
)
from repro.experiments.config import FULL, MEDIUM, SMALL, ExperimentScale
from repro.experiments.tables import ExperimentReport

__all__ = [
    "main",
    "run_experiments",
    "RequestError",
    "EXPERIMENTS",
    "WORKER_AWARE",
    "CACHE_AWARE",
    "TIER_AWARE",
]

SCALES: Dict[str, ExperimentScale] = {s.name: s for s in (SMALL, MEDIUM, FULL)}

#: Experiment id -> callable(scale, **kwargs) -> ExperimentReport.
#: Scale-free experiments ignore the argument; worker/cache-aware ones
#: accept the keywords named in the frozensets below.
EXPERIMENTS: Dict[str, Callable[..., ExperimentReport]] = {
    "table1": lambda scale: table1_limits.run(),
    "fig2": lambda scale: fig2_mobility.run(),
    "fig3": fig3_entropy.run,
    "fig4": lambda scale: fig4_case_study.run(),
    "fig6": fig6_attack.run,
    "fig7": fig7_mechanisms.run,
    "fig8": fig8_min_utilization.run,
    "fig9": fig9_efficacy.run,
    "table2": table2_obfuscation_time.run,
    "table3": table3_selection_time.run,
    # Extensions beyond the paper's own figures:
    "ext_adaptive": ext_adaptive.run,
}

#: Experiments whose ``run`` accepts a ``workers`` keyword (the per-user
#: loops and sweeps wired through :mod:`repro.parallel`).
WORKER_AWARE = frozenset({"fig6", "fig7", "fig8", "fig9", "table2", "table3"})

#: Experiments whose ``run`` accepts a ``cache`` keyword (the stage-cached
#: pipelines; cached and uncached runs produce bit-identical rows).
CACHE_AWARE = frozenset({"fig6", "fig7", "fig9", "table2", "table3"})

#: Experiments whose ``run`` accepts ``tier``/``mmap`` keywords (the
#: population-tier workloads that can serve columns out of core).
TIER_AWARE = frozenset({"fig6", "table2"})


class RequestError(ValueError):
    """An experiment request that names nothing runnable."""


def main(argv: Optional[List[str]] = None) -> int:
    """Parse the command line, then :func:`run_experiments`."""
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment ids ({', '.join(EXPERIMENTS)}) or 'all'",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="small",
        help="trial/population budget (default: small)",
    )
    parser.add_argument(
        "--charts",
        action="store_true",
        help="also draw ASCII charts for experiments with curve series",
    )
    add_data_plane_arguments(parser)
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="S",
        help="override the scale preset's root seed",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a repro.obs trace (spans + metrics, JSON lines) to PATH; "
        "inspect with 'repro obs PATH'",
    )
    args = parser.parse_args(argv)
    try:
        plane = DataPlaneConfig.from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return run_experiments(
            args.experiments, args.scale, plane,
            seed=args.seed, trace=args.trace, charts=args.charts,
        )
    except RequestError as exc:
        parser.error(str(exc))


def _validate(requested: List[str], plane: DataPlaneConfig) -> List[str]:
    """Expand ``all`` and reject unknown ids or a misapplied ``--tier``."""
    ids = list(EXPERIMENTS) if "all" in requested else list(requested)
    unknown = [e for e in ids if e not in EXPERIMENTS]
    if unknown:
        raise RequestError(f"unknown experiment(s): {', '.join(unknown)}")
    if plane.tier is not None:
        not_tiered = [e for e in ids if e not in TIER_AWARE]
        if not_tiered:
            raise RequestError(
                f"--tier only applies to {', '.join(sorted(TIER_AWARE))}; "
                f"got: {', '.join(not_tiered)}"
            )
    return ids


def run_experiments(
    requested: List[str],
    scale: str,
    plane: DataPlaneConfig,
    seed: Optional[int] = None,
    trace: Optional[str] = None,
    charts: bool = False,
) -> int:
    """Run the requested experiments and print their reports.

    ``requested`` holds experiment ids or ``all``; ``scale`` names a
    preset in :data:`SCALES`, whose root seed ``seed`` overrides.
    Raises :class:`RequestError` for an unknown id or scale, or a
    ``--tier`` given to an experiment that has no tiers — before any
    experiment runs.
    """
    ids = _validate(requested, plane)
    if scale not in SCALES:
        raise RequestError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    preset = SCALES[scale]
    if seed is not None:
        preset = dataclasses.replace(preset, seed=seed)
    cache = plane.stage_cache()
    if trace is not None:
        obs.enable(trace)
    try:
        for exp_id in ids:
            kwargs: Dict[str, object] = {}
            if exp_id in WORKER_AWARE:
                kwargs["workers"] = plane.workers
            if exp_id in CACHE_AWARE and cache is not None:
                kwargs["cache"] = cache
            if exp_id in TIER_AWARE and plane.tier is not None:
                kwargs["tier"] = plane.tier
                kwargs["mmap"] = plane.mmap
            with obs.span("experiment", id=exp_id, scale=preset.name):
                report = EXPERIMENTS[exp_id](preset, **kwargs)
            print(report.render())
            if charts:
                chart = _chart_for(exp_id, report)
                if chart:
                    print()
                    print(chart)
            print()
    finally:
        if trace is not None:
            obs.shutdown()
    return 0


#: Chart layout per experiment: (x column, y columns, optional group column).
_CHART_SPECS = {
    "fig7": ("n", ["mean_UR"], "mechanism"),
    "fig8": ("n", ["min_UR(r=500)", "min_UR(r=800)"], None),
    "fig9": ("n", ["efficacy(r=500)", "efficacy(r=800)"], None),
    "table2": ("users", ["seconds"], None),
    "table3": ("users", ["milliseconds"], None),
}


def _chart_for(exp_id: str, report: ExperimentReport) -> str:
    """Render the experiment's curve chart, or '' when it has none."""
    from repro.experiments.plotting import chart_from_rows

    spec = _CHART_SPECS.get(exp_id)
    if spec is None or not report.rows:
        return ""
    x_key, y_keys, group_key = spec
    rows = [r for r in report.rows if all(k in r for k in [x_key, *y_keys])]
    if group_key is None and rows and "epsilon" in rows[0]:
        # fig8 sweeps two epsilon blocks; chart the first for clarity.
        first_eps = rows[0]["epsilon"]
        rows = [r for r in rows if r["epsilon"] == first_eps]
    return chart_from_rows(rows, x_key, y_keys, group_key=group_key)


if __name__ == "__main__":
    sys.exit(main())
