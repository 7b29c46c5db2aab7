"""Figure 6's defended arm attacks exactly what the edge service releases.

The serve actor is the one definition of the Edge-PrivLocAd reporting
stream: fig6's defended stages replay each user through it, and
``repro simulate`` runs the same actors on the sharded service.  These
tests pin the two to each other, coordinate for coordinate, and pin the
figure's rows against the worker count.
"""

import pytest

from repro.attack.deobfuscation import DeobfuscationAttack
from repro.core.gaussian import NFoldGaussianMechanism
from repro.core.params import GeoIndBudget
from repro.data.columns import PopulationColumns
from repro.datagen.population import PopulationConfig, generate_population
from repro.experiments import fig6_attack
from repro.experiments.config import ExperimentScale
from repro.serve.egress import attack_egress
from repro.serve.harness import run_population

TINY = ExperimentScale(name="tiny", trials=40, n_users=6, mc_samples=64)


@pytest.mark.parametrize("seed", [0, 7])
def test_defended_inference_equals_served_egress_attack(seed):
    users = generate_population(PopulationConfig(n_users=4, seed=31 + seed))
    budget = GeoIndBudget(r=500.0, epsilon=1.0, delta=0.01, n=10)
    inferred = fig6_attack._infer_defended(
        PopulationColumns.from_users(users), 1.0, seed, budget.n, workers=1
    )
    served = attack_egress(
        run_population(users, seed=seed).responses,
        DeobfuscationAttack.against(NFoldGaussianMechanism(budget)),
        2,
    )
    assert sorted(served) == list(range(len(users)))
    for i, guesses in enumerate(inferred):
        assert guesses == [(p.x, p.y) for p in served[i]]


def test_rows_identical_at_four_workers():
    assert fig6_attack.run(TINY, workers=4).rows == fig6_attack.run(TINY).rows
