"""Simulated location-based-advertising ecosystem."""

from repro.ads.bidding import Ad, BidLog, BidLogRecord, BidRequest, BidResponse
from repro.ads.campaign import Advertiser, Campaign, seed_campaigns
from repro.ads.delivery import DeliveryStats, filter_ads_to_aoi
from repro.ads.matching import CampaignIndex
from repro.ads.network import AdNetwork
from repro.ads.platform_limits import (
    MILES_TO_M,
    PLATFORM_LIMITS,
    PlatformLimit,
    common_radius_interval,
)

__all__ = [
    "Advertiser",
    "Campaign",
    "seed_campaigns",
    "CampaignIndex",
    "AdNetwork",
    "Ad",
    "BidRequest",
    "BidResponse",
    "BidLog",
    "BidLogRecord",
    "DeliveryStats",
    "filter_ads_to_aoi",
    "PlatformLimit",
    "PLATFORM_LIMITS",
    "common_radius_interval",
    "MILES_TO_M",
]
