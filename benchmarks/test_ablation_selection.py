"""Ablation bench: posterior vs uniform output selection (DESIGN.md #2).

Without the posterior module (uniform selection over the pinned
candidates), advertising efficacy collapses as n grows; with it, efficacy
plateaus — the mechanism behind the paper's Observation 4.
"""

from conftest import BENCH

from repro.experiments import fig9_efficacy
from repro.experiments.tables import ExperimentReport


def _run_both() -> ExperimentReport:
    post = fig9_efficacy.run(BENCH, ns=(1, 4, 10), selector_kind="posterior")
    unif = fig9_efficacy.run(BENCH, ns=(1, 4, 10), selector_kind="uniform")
    rows = []
    for p_row, u_row in zip(post.rows, unif.rows):
        rows.append(
            {
                "n": p_row["n"],
                "efficacy_posterior(r=500)": p_row["efficacy(r=500)"],
                "efficacy_uniform(r=500)": u_row["efficacy(r=500)"],
            }
        )
    return ExperimentReport(
        experiment_id="ablation_selection",
        title="efficacy with and without posterior output selection",
        rows=rows,
        notes=["paper: the output selection module is what keeps efficacy high"],
        meta={"workload": post.meta["workload"]},
    )


def test_ablation_selection(benchmark, archive):
    report = benchmark.pedantic(_run_both, rounds=1, iterations=1)
    archive(report)
    by_n = {r["n"]: r for r in report.rows}
    # At n=10 posterior selection clearly beats uniform.
    assert (
        by_n[10]["efficacy_posterior(r=500)"]
        > by_n[10]["efficacy_uniform(r=500)"] + 0.1
    )
    # Uniform decays substantially from n=1; posterior plateaus.
    assert by_n[10]["efficacy_uniform(r=500)"] < by_n[1]["efficacy_uniform(r=500)"] * 0.7
    assert by_n[10]["efficacy_posterior(r=500)"] > by_n[1]["efficacy_posterior(r=500)"] * 0.7
