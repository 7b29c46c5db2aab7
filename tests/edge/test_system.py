"""Unit tests for the full deployment: a population replayed through the edge service."""

import numpy as np
import pytest

from repro.ads.campaign import seed_campaigns
from repro.datagen.population import PopulationConfig, generate_population
from repro.datagen.shanghai import shanghai_planar_bbox
from repro.geo.point import Point
from repro.profiles.checkin import CheckIn
from repro.serve import EventSchedule, TrafficSummary, run_population


class TestSeedCampaigns:
    def test_count_and_region(self, rng):
        region = shanghai_planar_bbox()
        campaigns = seed_campaigns(region, 20, 5_000.0, rng)
        assert len(campaigns) == 20
        for c in campaigns:
            assert region.contains(c.business_location)
            assert c.radius_m == 5_000.0

    def test_zero_count(self, rng):
        assert seed_campaigns(shanghai_planar_bbox(), 0, 5_000.0, rng) == []

    def test_ids_are_a_function_of_the_index(self):
        one = seed_campaigns(shanghai_planar_bbox(), 3, 5_000.0, np.random.default_rng(1))
        two = seed_campaigns(shanghai_planar_bbox(), 3, 5_000.0, np.random.default_rng(1))
        assert [c.campaign_id for c in one] == ["campaign-000000", "campaign-000001", "campaign-000002"]
        assert one == two


class TestSystemRun:
    @pytest.fixture(scope="class")
    def run_result(self):
        users = generate_population(PopulationConfig(n_users=6, seed=21))
        report = run_population(users, n_edges=2, n_campaigns=100, seed=0)
        return users, report, TrafficSummary.from_responses(report.responses)

    def test_all_requests_served(self, run_result):
        users, report, traffic = run_result
        total = sum(u.n_checkins for u in users)
        assert traffic.requests == total
        assert report.processed == total
        assert report.dropped == 0

    def test_every_user_in_bid_log(self, run_result):
        users, report, _ = run_result
        assert {r.user_index for r in report.responses} == set(range(len(users)))

    def test_clients_pinned_to_one_edge(self, run_result):
        """Each user has exactly one actor, on exactly one edge (shard)."""
        users, report, _ = run_result
        assert report.n_actors == len(users)
        assert sum(s["actors"] for s in report.shard_stats) == len(users)

    def test_path_accounting_consistent(self, run_result):
        _, report, traffic = run_result
        nomadic = sum(r.path == "nomadic" for r in report.responses)
        assert traffic.top_path_requests + nomadic == traffic.requests
        assert 0.0 <= traffic.top_path_share <= 1.0

    def test_reported_locations_never_true(self, run_result):
        """No released location may exactly equal a raw check-in location."""
        users, report, _ = run_result
        for index, u in enumerate(users[:2]):
            true_points = {(c.x, c.y) for c in u.trace}
            released = [r for r in report.responses if r.user_index == index]
            for r in released[:200]:
                assert (r.reported_x, r.reported_y) not in true_points

    def test_relevance_ratio_bounded(self, run_result):
        _, _, traffic = run_result
        assert 0.0 <= traffic.relevance_ratio <= 1.0

    def test_config_validation(self, run_result):
        users, _, _ = run_result
        with pytest.raises(ValueError):
            run_population(users, n_edges=0)

    def test_schedule_sorts_each_trace(self):
        trace = [CheckIn(5.0, Point(0, 0)), CheckIn(1.0, Point(1, 0))]
        schedule = EventSchedule.from_traces(["u"], [trace])
        assert schedule.timestamps.tolist() == [1.0, 5.0]
        assert schedule.xs.tolist() == [1.0, 0.0]


class TestTrafficSummary:
    def test_empty_run(self):
        traffic = TrafficSummary.from_responses([])
        assert traffic.requests == 0
        assert traffic.relevance_ratio == 1.0
        assert traffic.top_path_share == 0.0


class TestAdaptiveSystem:
    def test_adaptive_run_completes(self):
        """The risk-adaptive policy releases one report per check-in."""
        from repro.edge.risk import RiskAssessor
        from repro.core.accounting import LongitudinalExposureAccountant
        from repro.experiments.ext_adaptive import _report_stream

        users = generate_population(PopulationConfig(n_users=3, seed=8))
        accountant = LongitudinalExposureAccountant()
        for i, user in enumerate(users):
            stream, _ = _report_stream(user, "adaptive", RiskAssessor(), i, accountant)
            assert len(stream) == user.n_checkins
        assert accountant.observations > 0
