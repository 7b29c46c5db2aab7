"""Ablation bench: obfuscation-table permanence (DESIGN.md #5).

Compares the longitudinal attack's top-1 error when candidates are pinned
once (Edge-PrivLocAd) against a broken deployment that regenerates the
candidate set on every request.  Fresh randomness per request lets the
attacker's cluster mean converge back onto the true location — permanence
is the property that defeats the longitudinal attack, not the noise
magnitude alone.
"""

import numpy as np

from conftest import BENCH

from repro.attack.deobfuscation import DeobfuscationAttack
from repro.core.gaussian import GaussianMechanism, NFoldGaussianMechanism
from repro.core.mechanism import default_rng
from repro.core.params import GeoIndBudget
from repro.core.posterior import PosteriorSelector
from repro.datagen.population import PopulationConfig, iter_population
from repro.edge.clock import VirtualTimeSource
from repro.experiments.tables import ExperimentReport
from repro.profiles.checkin import CheckIn, checkins_to_array
from repro.serve.actor import EdgeConfig, UserActor


def _run() -> ExperimentReport:
    budget = GeoIndBudget(500.0, 1.0, 0.01, 10)
    rng = default_rng(55)
    mechanism = NFoldGaussianMechanism(budget, rng=rng)
    selector = PosteriorSelector(mechanism.posterior_sigma, rng=rng)
    users = list(iter_population(PopulationConfig(n_users=20, seed=BENCH.seed)))

    pinned_errors, fresh_errors = [], []
    for index, user in enumerate(users):
        # Edge-PrivLocAd: the user's serve actor pins each window's tops once.
        actor = UserActor(
            user.user_id, index, 55, EdgeConfig(budget=budget),
            time_source=VirtualTimeSource(),
        )
        pinned = np.asarray(
            [
                tuple(actor.handle_checkin(c.timestamp, c.x, c.y)[0])
                for c in user.trace
            ],
            dtype=float,
        )
        attack = DeobfuscationAttack.against(mechanism)
        tops = attack.estimate_xy(pinned, 1)
        if tops:
            pinned_errors.append(tops[0].distance_to(user.true_tops[0]))

        # Broken variant: new candidate set per request.
        fresh = [
            CheckIn(c.timestamp, selector.select(mechanism.obfuscate(c.point)))
            for c in user.trace
        ]
        # Fresh per-request noise behaves like a 1-fold release stream.
        attack_fresh = DeobfuscationAttack.against(
            GaussianMechanism(budget.with_n(1), rng=default_rng(0))
        )
        tops = attack_fresh.estimate_xy(checkins_to_array(fresh), 1)
        if tops:
            fresh_errors.append(tops[0].distance_to(user.true_tops[0]))

    rows = [
        {
            "deployment": "pinned candidates (Edge-PrivLocAd)",
            "median_top1_error_m": float(np.median(pinned_errors)),
            "within_500m": float((np.asarray(pinned_errors) <= 500).mean()),
        },
        {
            "deployment": "fresh candidates per request (broken)",
            "median_top1_error_m": float(np.median(fresh_errors)),
            "within_500m": float((np.asarray(fresh_errors) <= 500).mean()),
        },
    ]
    return ExperimentReport(
        experiment_id="ablation_permanence",
        title="attack error: pinned vs per-request regenerated candidates",
        rows=rows,
        notes=["permanence of the obfuscation table is the load-bearing design choice"],
    )


def test_ablation_permanence(benchmark, archive):
    report = benchmark.pedantic(_run, rounds=1, iterations=1)
    archive(report)
    pinned, fresh = report.rows
    # The broken deployment is dramatically easier to attack.
    assert fresh["median_top1_error_m"] < pinned["median_top1_error_m"] / 2
    assert fresh["within_500m"] > pinned["within_500m"]
