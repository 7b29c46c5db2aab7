"""Unit tests for the edge pipeline as a shard serves it.

An edge device is one serve shard: it owns the actors of the users routed
to it and forwards their obfuscated reports to its ad-network view.
"""

from repro.ads.campaign import Advertiser, Campaign
from repro.core.params import GeoIndBudget
from repro.edge.clock import VirtualTimeSource
from repro.geo.point import Point
from repro.profiles.checkin import SECONDS_PER_DAY, CheckIn
from repro.serve.actor import EdgeConfig, UserActor
from repro.serve.events import EventSchedule
from repro.serve.shard import ShardSpec, ShardState


DAY = SECONDS_PER_DAY
HOME = Point(0.0, 0.0)


def edge_config(window_days=30.0):
    return EdgeConfig(budget=GeoIndBudget(500.0, 1.0, 0.01, 10), window_days=window_days)


def make_actor(window_days=30.0):
    return UserActor(
        "u", 0, seed=3, config=edge_config(window_days), time_source=VirtualTimeSource()
    )


def make_shard(traces, window_days=30.0):
    """One edge device serving ``traces`` ({user_id: [CheckIn]}), no campaigns."""
    user_ids = sorted(traces)
    schedule = EventSchedule.from_traces(user_ids, [traces[u] for u in user_ids])
    spec = ShardSpec(
        shard_id=0, n_shards=1, seed=3, edge=edge_config(window_days), n_campaigns=0
    )
    return ShardState(spec, schedule)


def serve_all(shard):
    return shard.process(list(range(len(shard.schedule)))).responses


class TestReportPath:
    def test_nomadic_before_first_window(self):
        reported, path = make_actor().handle_checkin(0.0, HOME.x, HOME.y)
        assert path == "nomadic"
        assert reported != HOME

    def test_top_path_after_window_closes(self):
        actor = make_actor(window_days=10.0)
        for i in range(30):
            actor.handle_checkin(i * DAY / 3, HOME.x, HOME.y)
        # Cross the window boundary.
        _, path = actor.handle_checkin(11 * DAY, HOME.x, HOME.y)
        assert path == "top"

    def test_top_reports_come_from_pinned_set(self):
        actor = make_actor(window_days=10.0)
        for i in range(30):
            actor.handle_checkin(i * DAY / 3, HOME.x, HOME.y)
        reports = set()
        for k in range(100):
            reported, path = actor.handle_checkin(11 * DAY + k, HOME.x, HOME.y)
            assert path == "top"
            reports.add((reported.x, reported.y))
        assert len(reports) <= 10

    def test_per_user_state_isolation(self):
        shard = make_shard(
            {"alice": [CheckIn(0.0, HOME)], "bob": [CheckIn(0.0, Point(9_000, 0))]},
            window_days=10.0,
        )
        serve_all(shard)
        assert len(shard.actors) == 2
        alice, bob = shard.actors[0], shard.actors[1]
        assert alice is not bob
        assert alice.ledger is not bob.ledger


class TestServePath:
    def test_handle_logs_obfuscated_location_only(self):
        """The network log must never contain the true location."""
        shard = make_shard({"u": [CheckIn(0.0, HOME)]})
        (response,) = serve_all(shard)
        rec = shard.network.bid_log.records_for("u")[0]
        assert rec.reported_location == Point(response.reported_x, response.reported_y)
        assert rec.reported_location.distance_to(HOME) > 1.0

    def test_delivered_ads_are_aoi_relevant(self):
        shard = make_shard({"u": [CheckIn(0.0, HOME)]})
        near = Campaign.create(
            Advertiser("a1"), Point(1_000, 0), radius_m=25_000.0, bid_price=2.0
        )
        far = Campaign.create(
            Advertiser("a2"), Point(40_000, 0), radius_m=25_000.0, bid_price=3.0
        )
        shard.network.register_campaigns([near, far])
        (response,) = serve_all(shard)
        by_id = {c.campaign_id: c for c in (near, far)}
        for campaign_id, _ in response.ads:
            location = by_id[campaign_id].business_location
            assert location.distance_to(HOME) <= shard.spec.edge.targeting_radius

    def test_requests_counted(self):
        shard = make_shard({"u": [CheckIn(0.0, HOME), CheckIn(1.0, HOME)]})
        assert len(serve_all(shard)) == 2
        assert shard.actors[0].events_handled == 2

    def test_finalize_user_pins_tops(self):
        shard = make_shard(
            {"u": [CheckIn(float(i), HOME) for i in range(20)]}, window_days=10_000.0
        )
        serve_all(shard)
        shard.finalize()
        assert shard.actors[0].obfuscation.obfuscation_count >= 1

    def test_finalize_unknown_user_noop(self):
        shard = make_shard({"u": [CheckIn(0.0, HOME)]})
        assert shard.finalize() == []  # no actor was ever created
