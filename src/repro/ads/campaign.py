"""Advertisers and radius-targeting campaigns.

A campaign pins a business location and a targeting radius (the paper's
"radius targeting" category, the most privacy-sensitive of the three
geo-targeting methods): the advertiser bids on ad requests whose reported
location falls within the radius of the business location.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.ads.platform_limits import PLATFORM_LIMITS
from repro.geo.bbox import BoundingBox
from repro.geo.point import Point

__all__ = ["Advertiser", "Campaign", "seed_campaigns"]

_campaign_counter = itertools.count(1)


@dataclass(frozen=True)
class Advertiser:
    """A business promoting itself through the ad network."""

    advertiser_id: str
    name: str = ""
    category: str = "general"


@dataclass(frozen=True)
class Campaign:
    """One radius-targeting campaign.

    Attributes:
        business_location: the centre of the targeting circle (planar m).
        radius_m: targeting radius.
        bid_price: the advertiser's bid in the network's second-price
            auction (arbitrary currency units).
        platform: optional platform name; when given, the radius is
            validated against that platform's Table I limits.
    """

    campaign_id: str
    advertiser: Advertiser
    business_location: Point
    radius_m: float
    bid_price: float = 1.0
    platform: Optional[str] = None

    def __post_init__(self) -> None:
        if self.radius_m <= 0:
            raise ValueError(f"targeting radius must be positive, got {self.radius_m}")
        if self.bid_price <= 0:
            raise ValueError(f"bid price must be positive, got {self.bid_price}")
        if self.platform is not None:
            limit = PLATFORM_LIMITS.get(self.platform)
            if limit is None:
                raise ValueError(f"unknown platform: {self.platform}")
            if not limit.allows(self.radius_m):
                raise ValueError(
                    f"radius {self.radius_m} m outside {self.platform}'s allowed "
                    f"range [{limit.min_radius_m}, {limit.max_radius_m}] m"
                )

    @classmethod
    def create(
        cls,
        advertiser: Advertiser,
        business_location: Point,
        radius_m: float,
        bid_price: float = 1.0,
        platform: Optional[str] = None,
        campaign_id: Optional[str] = None,
    ) -> "Campaign":
        """Create a campaign, auto-assigning an id unless one is given.

        The auto-assigned id comes from a process-global counter, which
        is fine for single-process simulations but not reproducible
        across processes — replicated inventories (every serve shard
        builds the same campaign set) must pass an explicit
        ``campaign_id``.
        """
        return cls(
            campaign_id=campaign_id
            if campaign_id is not None
            else f"campaign-{next(_campaign_counter):06d}",
            advertiser=advertiser,
            business_location=business_location,
            radius_m=radius_m,
            bid_price=bid_price,
            platform=platform,
        )

    def targets(self, reported_location: Point) -> bool:
        """Does this campaign target the given reported location?"""
        return self.business_location.distance_to(reported_location) <= self.radius_m


def seed_campaigns(
    region: BoundingBox, count: int, radius_m: float, rng: np.random.Generator
) -> List[Campaign]:
    """Scatter radius-targeting campaigns uniformly over the region.

    Campaign ids are a pure function of the index (``campaign-<i>``), not
    the process-global counter, so every process that seeds the same
    inventory builds the same ids (each serve shard replicates the
    campaign set, and response digests compare campaign ids).
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    campaigns = []
    for i, (x, y) in enumerate(region.sample_uniform(count, rng)):
        campaigns.append(
            Campaign.create(
                advertiser=Advertiser(advertiser_id=f"adv-{i:05d}", name=f"Business {i}"),
                business_location=Point(float(x), float(y)),
                radius_m=radius_m,
                bid_price=float(rng.uniform(0.5, 5.0)),
                campaign_id=f"campaign-{i:06d}",
            )
        )
    return campaigns
