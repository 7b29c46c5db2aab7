"""Integration test: the full Edge-PrivLocAd deployment against its provider."""

import numpy as np
import pytest

from repro.attack.deobfuscation import DeobfuscationAttack
from repro.attack.success import evaluate_user, success_rate
from repro.core.gaussian import NFoldGaussianMechanism
from repro.core.params import GeoIndBudget
from repro.serve import TrafficSummary, attack_egress, run_population


@pytest.fixture(scope="module")
def deployed(tiny_population):
    report = run_population(tiny_population, n_edges=3, n_campaigns=200, seed=7)
    return tiny_population, report, TrafficSummary.from_responses(report.responses)


def egress_of(report, user_index):
    """The (m, 2) reported coordinates one user released, in order."""
    return np.array(
        [
            (r.reported_x, r.reported_y)
            for r in report.responses
            if r.user_index == user_index
        ]
    )


class TestServing:
    def test_every_checkin_becomes_a_request(self, deployed):
        users, _, traffic = deployed
        assert traffic.requests == sum(u.n_checkins for u in users)

    def test_most_traffic_served_from_pinned_tops(self, deployed):
        """Routine users should hit the top path for most requests."""
        _, _, traffic = deployed
        assert traffic.top_path_share > 0.5

    def test_some_ads_delivered(self, deployed):
        _, _, traffic = deployed
        assert traffic.ads_delivered > 0

    def test_edge_filter_blocks_irrelevant_ads(self, deployed):
        _, _, traffic = deployed
        assert traffic.ads_delivered <= traffic.ads_received


class TestProviderSideAttack:
    def test_longitudinal_attack_on_own_log_fails(self, deployed):
        users, report, _ = deployed
        budget = GeoIndBudget(500.0, 1.0, 0.01, 10)
        attack = DeobfuscationAttack.against(NFoldGaussianMechanism(budget))
        inferred = attack_egress(report.responses, attack, 1)
        outcomes = [
            evaluate_user(inferred.get(i, []), u.true_tops[:1])
            for i, u in enumerate(users)
        ]
        assert success_rate(outcomes, 1, 200.0) <= 0.2

    def test_provider_observed_every_user(self, deployed):
        users, report, _ = deployed
        assert {r.user_index for r in report.responses} == set(range(len(users)))

    def test_log_is_distributionally_far_from_true_tops(self, deployed):
        """The provider's log must not concentrate near a true top location.

        Nomadic reports carry 1-fold Gaussian noise (sigma ~1.6 km) and top
        reports come from pinned candidates (sigma ~5 km).  Individual
        draws can land close by chance, so the assertion is
        distributional: the median logged distance to the true top must be
        on the noise scale, and no report may be exactly at the truth.
        """
        users, report, _ = deployed
        for index, u in enumerate(users[:4]):
            obs = egress_of(report, index)
            for top in u.true_tops[:1]:
                d = np.hypot(obs[:, 0] - top.x, obs[:, 1] - top.y)
                assert np.median(d) > 500.0
                assert d.min() > 0.0
