"""Integration tests: the paper's core claims, end to end on one population.

These tests stitch datagen -> mechanisms -> attack -> metrics together and
assert the headline qualitative results of the paper (Fig. 6): one-time
geo-IND deployments leak top locations to the longitudinal attacker, while
the permanent n-fold Gaussian deployment does not.
"""

import math

import pytest

from repro.attack.deobfuscation import DeobfuscationAttack
from repro.attack.success import evaluate_user, success_rate
from repro.core.gaussian import GaussianMechanism, NFoldGaussianMechanism
from repro.core.laplace import PlanarLaplaceMechanism
from repro.core.mechanism import default_rng
from repro.core.params import GeoIndBudget
from repro.core.posterior import PosteriorSelector
from repro.datagen.obfuscate import one_time_obfuscate
from repro.profiles.checkin import CheckIn
from repro.serve.egress import attack_egress
from repro.serve.harness import run_population


@pytest.fixture(scope="module")
def population(tiny_population):
    return tiny_population


def attack_one_time(users, level, seed):
    mech = PlanarLaplaceMechanism.from_level(level, 200.0, rng=default_rng(seed))
    attack = DeobfuscationAttack.against(mech)
    outcomes = []
    for u in users:
        observed = one_time_obfuscate(u.trace, mech)
        inferred = [r.location for r in attack.infer_top_locations(observed, 1)]
        outcomes.append(evaluate_user(inferred, u.true_tops[:1]))
    return outcomes


class TestOneTimeGeoIndIsVulnerable:
    @pytest.mark.parametrize("level", [math.log(2), math.log(4), math.log(6)])
    def test_top1_mostly_recovered(self, population, level):
        outcomes = attack_one_time(population, level, seed=17)
        rate = success_rate(outcomes, rank=1, threshold_m=200.0)
        assert rate >= 0.6  # paper: 75-93%

    def test_looser_privacy_is_easier_to_attack(self, population):
        strict = attack_one_time(population, math.log(2), seed=18)
        loose = attack_one_time(population, math.log(6), seed=18)
        assert success_rate(loose, 1, 200.0) >= success_rate(strict, 1, 200.0) - 0.1


class TestPermanentDefenseHolds:
    def test_defended_attack_fails(self, population):
        attack = DeobfuscationAttack.against(
            NFoldGaussianMechanism(GeoIndBudget(500.0, 1.0, 0.01, 10))
        )
        # The deployed edge: every check-in served by the user's actor.
        inferred = attack_egress(run_population(population, seed=19).responses, attack, 1)
        outcomes = [
            evaluate_user(inferred.get(i, []), u.true_tops[:1])
            for i, u in enumerate(population)
        ]
        assert success_rate(outcomes, 1, 200.0) <= 0.2
        # The defense's errors are dominated by the pinned noise scale.
        assert success_rate(outcomes, 1, 500.0) <= 0.3

    def test_permanence_matters(self, population):
        """Ablation: re-randomising candidates per request re-enables the attack.

        This is the design-choice ablation from DESIGN.md: if the
        obfuscation table is NOT permanent, the attacker sees fresh noise
        every request and the mean converges back to the true location.
        """
        budget = GeoIndBudget(500.0, 1.0, 0.01, 10)
        rng = default_rng(20)
        mech = NFoldGaussianMechanism(budget, rng=rng)
        selector = PosteriorSelector(mech.posterior_sigma, rng=rng)
        attack = DeobfuscationAttack.against(
            GaussianMechanism(budget.with_n(1), rng=default_rng(0))
        )
        user = max(population, key=lambda u: u.n_checkins)
        # Broken deployment: fresh candidate set per check-in.
        reported = [
            CheckIn(c.timestamp, selector.select(mech.obfuscate(c.point)))
            for c in user.trace
        ]
        top1 = attack.infer_top_locations(reported, 1)[0].location
        err_broken = top1.distance_to(user.true_tops[0])

        # Correct permanent deployment on the same user: the edge actor.
        pinned = run_population([user], seed=20).responses
        top1_pinned = attack_egress(pinned, DeobfuscationAttack.against(mech), 1)[0][0]
        err_pinned = top1_pinned.distance_to(user.true_tops[0])

        assert err_broken < err_pinned
