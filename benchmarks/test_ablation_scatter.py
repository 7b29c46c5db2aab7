"""Ablation bench: the naive baseline's unspecified scatter radius.

The paper's naive post-processing baseline samples its n candidates "in a
certain radius" around the single obfuscated location but never fixes that
radius.  This bench sweeps the choice and documents an honest subtlety:
with a very wide scatter the baseline can match the n-fold mechanism's
*utilization rate* (blanketing the map reaches every advertiser) — but
only by collapsing *efficacy*, because the blanket AOR is mostly
irrelevant.  The n-fold mechanism is the only one strong on both metrics,
which is the real content of the paper's Figure 7 + Figure 9 pair.
"""

from conftest import BENCH

from repro.core.baselines import NaivePostProcessingMechanism
from repro.core.gaussian import NFoldGaussianMechanism
from repro.core.mechanism import default_rng
from repro.core.params import GeoIndBudget
from repro.core.posterior import PosteriorSelector, UniformSelector
from repro.experiments.tables import ExperimentReport
from repro.metrics.efficacy import efficacy_samples
from repro.metrics.utilization import utilization_samples

BUDGET = GeoIndBudget(r=500.0, epsilon=1.0, delta=0.01, n=10)
#: Scatter radius as a multiple of the 1-fold sigma (~1.6 km).
SCATTER_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0)
TRIALS = max(200, BENCH.trials // 4)


def _mean_ur(mechanism, seed: int) -> float:
    rng = default_rng(seed)
    samples = utilization_samples(
        mechanism, trials=TRIALS, mc_samples=BENCH.mc_samples, rng=rng
    )
    return float(samples.mean())


def _mean_ae(mechanism, selector, seed: int) -> float:
    rng = default_rng(seed)
    samples = efficacy_samples(mechanism, selector, trials=TRIALS, rng=rng)
    return float(samples.mean())


def _run() -> ExperimentReport:
    rows = []
    nfold = NFoldGaussianMechanism(BUDGET, rng=default_rng(1))
    nfold_ur = _mean_ur(nfold, seed=2)
    nfold_ae = _mean_ae(
        NFoldGaussianMechanism(BUDGET, rng=default_rng(1)),
        PosteriorSelector(nfold.posterior_sigma, rng=default_rng(2)),
        seed=3,
    )
    base_sigma = NaivePostProcessingMechanism(BUDGET).sigma
    for factor in SCATTER_FACTORS:
        mech_ur = NaivePostProcessingMechanism(
            BUDGET, scatter_radius=factor * base_sigma, rng=default_rng(4)
        )
        mech_ae = NaivePostProcessingMechanism(
            BUDGET, scatter_radius=factor * base_sigma, rng=default_rng(4)
        )
        rows.append(
            {
                "scatter_radius_x_sigma": factor,
                "naive_mean_UR": _mean_ur(mech_ur, seed=5),
                "naive_mean_AE": _mean_ae(
                    mech_ae, UniformSelector(rng=default_rng(5)), seed=6
                ),
                "nfold_mean_UR": nfold_ur,
                "nfold_mean_AE": nfold_ae,
            }
        )
    return ExperimentReport(
        experiment_id="ablation_scatter",
        title="naive post-processing vs scatter radius (n=10): UR and AE",
        rows=rows,
        notes=[
            "wide scatter buys UR by blanketing the map, at the cost of "
            "efficacy; only the n-fold mechanism is strong on both",
        ],
    )


def test_ablation_scatter(benchmark, archive):
    report = benchmark.pedantic(_run, rounds=1, iterations=1)
    archive(report)
    nfold_ur = report.rows[0]["nfold_mean_UR"]
    nfold_ae = report.rows[0]["nfold_mean_AE"]
    for row in report.rows:
        # No scatter radius beats the n-fold mechanism on BOTH metrics.
        beats_both = (
            row["naive_mean_UR"] >= nfold_ur
            and row["naive_mean_AE"] >= nfold_ae
        )
        assert not beats_both
    # The radius choice matters (documents why ours is pinned in DESIGN.md).
    urs = [r["naive_mean_UR"] for r in report.rows]
    assert max(urs) - min(urs) > 0.03
