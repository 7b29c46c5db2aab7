"""Ablation bench: the attack's TRIMMING stage (DESIGN.md #3).

Runs the de-obfuscation attack with and without the trimming refinement
against one-time geo-IND traces.  Trimming should reduce the top-1
inference error on average — it is what makes Algorithm 1 accurate when
perturbation clouds from different true locations overlap.
"""

import math

import numpy as np

from conftest import BENCH

from repro.attack.deobfuscation import DeobfuscationAttack
from repro.core.laplace import PlanarLaplaceMechanism
from repro.core.mechanism import default_rng
from repro.datagen.obfuscate import one_time_obfuscate
from repro.datagen.population import PopulationConfig, iter_population
from repro.experiments.tables import ExperimentReport


def _run() -> ExperimentReport:
    users = list(
        iter_population(PopulationConfig(n_users=BENCH.n_users, seed=BENCH.seed))
    )
    mechanism = PlanarLaplaceMechanism.from_level(
        math.log(2), 200.0, rng=default_rng(77)
    )
    with_trim = DeobfuscationAttack.against(mechanism, use_trimming=True)
    without_trim = DeobfuscationAttack.against(mechanism, use_trimming=False)
    errors = {"with trimming": [], "without trimming": []}
    for user in users:
        observed = one_time_obfuscate(user.trace, mechanism)
        coords = np.array([(c.x, c.y) for c in observed])
        for label, attack in (
            ("with trimming", with_trim),
            ("without trimming", without_trim),
        ):
            tops = attack.estimate_xy(coords, 1)
            err = tops[0].distance_to(user.true_tops[0]) if tops else float("inf")
            errors[label].append(err)
    rows = []
    for label, errs in errors.items():
        arr = np.asarray(errs)
        rows.append(
            {
                "variant": label,
                "median_error_m": float(np.median(arr)),
                "mean_error_m": float(arr[np.isfinite(arr)].mean()),
                "within_200m": float((arr <= 200.0).mean()),
            }
        )
    return ExperimentReport(
        experiment_id="ablation_attack_trimming",
        title="top-1 attack accuracy with and without TRIMMING",
        rows=rows,
        notes=["Algorithm 1's refinement stage tightens the recovered centroid"],
    )


def test_ablation_attack_trimming(benchmark, archive):
    report = benchmark.pedantic(_run, rounds=1, iterations=1)
    archive(report)
    by_variant = {r["variant"]: r for r in report.rows}
    trimmed = by_variant["with trimming"]
    raw = by_variant["without trimming"]
    # Trimming must not hurt, and typically helps, accuracy.
    assert trimmed["median_error_m"] <= raw["median_error_m"] * 1.05
    assert trimmed["within_200m"] >= raw["within_200m"] - 0.05
