"""Unit tests for the grid-bucketed campaign index."""


from repro.ads.campaign import Advertiser, Campaign
from repro.ads.matching import CampaignIndex
from repro.geo.point import Point


ADV = Advertiser("adv", "A")


def campaign(x, y, radius, cid=None):
    return Campaign(
        campaign_id=cid or f"c-{x}-{y}-{radius}",
        advertiser=ADV,
        business_location=Point(x, y),
        radius_m=radius,
    )


class TestCampaignIndex:
    def test_match_inside_radius(self):
        idx = CampaignIndex([campaign(0, 0, 1_000)])
        assert len(idx.match(Point(500, 0))) == 1
        assert idx.match(Point(2_000, 0)) == []

    def test_match_multiple_overlapping(self):
        idx = CampaignIndex(
            [campaign(0, 0, 5_000), campaign(3_000, 0, 5_000), campaign(50_000, 0, 1_000)]
        )
        matches = idx.match(Point(1_500, 0))
        assert len(matches) == 2

    def test_incremental_add_with_growing_radius_rebuilds(self):
        idx = CampaignIndex([campaign(0, 0, 100)])
        idx.add(campaign(0, 0, 10_000))
        # Both must still be matchable after the rebuild.
        assert len(idx.match(Point(50, 0))) == 2
        assert len(idx.match(Point(5_000, 0))) == 1

    def test_empty_index(self):
        assert CampaignIndex().match(Point(0, 0)) == []

    def test_matches_brute_force(self, rng):
        campaigns = [
            campaign(float(x), float(y), float(r), cid=f"c{i}")
            for i, (x, y, r) in enumerate(
                zip(
                    rng.uniform(-20_000, 20_000, 150),
                    rng.uniform(-20_000, 20_000, 150),
                    rng.uniform(500, 8_000, 150),
                )
            )
        ]
        idx = CampaignIndex(campaigns)
        for _ in range(30):
            q = Point(float(rng.uniform(-20_000, 20_000)), float(rng.uniform(-20_000, 20_000)))
            expected = {c.campaign_id for c in campaigns if c.targets(q)}
            got = {c.campaign_id for c in idx.match(q)}
            assert got == expected

    def test_len(self):
        idx = CampaignIndex([campaign(0, 0, 100), campaign(1, 1, 100, cid="x")])
        assert len(idx) == 2
