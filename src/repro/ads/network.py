"""The ad network: matching, auction, and the observable bidding log.

The network receives bid requests carrying *reported* (ideally obfuscated)
locations, matches them against registered radius-targeting campaigns,
runs a second-price auction among the matches, and serves the winners.
Every request is appended to the bidding log regardless of fill — that log
is what the honest-but-curious observer (and hence the longitudinal
attacker) sees.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence

from repro.ads.bidding import Ad, BidLog, BidLogRecord, BidRequest, BidResponse
from repro.ads.campaign import Campaign
from repro.ads.matching import CampaignIndex
from repro.geo.point import Point

__all__ = ["AdNetwork"]


class AdNetwork:
    """A minimal but complete RTB-style LBA network."""

    def __init__(self, max_ads_per_request: int = 3) -> None:
        if max_ads_per_request < 1:
            raise ValueError("max_ads_per_request must be positive")
        self._index = CampaignIndex()
        self._log = BidLog()
        self._request_counter = itertools.count(1)
        self.max_ads_per_request = max_ads_per_request

    @property
    def bid_log(self) -> BidLog:
        """The observable request log (the attacker's vantage point)."""
        return self._log

    @property
    def campaign_count(self) -> int:
        """Number of registered campaigns."""
        return len(self._index)

    def register_campaign(self, campaign: Campaign) -> None:
        """Add one radius-targeting campaign to the matcher."""
        self._index.add(campaign)

    def register_campaigns(self, campaigns: Sequence[Campaign]) -> None:
        """Add a batch of campaigns."""
        for c in campaigns:
            self.register_campaign(c)

    def new_request(
        self, device_id: str, reported_location: Point, timestamp: float
    ) -> BidRequest:
        """Mint a bid request (the edge device calls this on the user's behalf)."""
        return BidRequest(
            request_id=f"req-{next(self._request_counter):09d}",
            device_id=device_id,
            reported_location=reported_location,
            timestamp=timestamp,
        )

    def handle(self, request: BidRequest) -> BidResponse:
        """Match, auction, serve, and log one bid request."""
        matches = self._index.match(request.reported_location)
        self._log.append(
            BidLogRecord(
                device_id=request.device_id,
                reported_location=request.reported_location,
                timestamp=request.timestamp,
                matched_campaigns=len(matches),
            )
        )
        winners = self._auction(matches)
        ads = tuple(
            Ad(
                campaign_id=c.campaign_id,
                advertiser_id=c.advertiser.advertiser_id,
                business_location=c.business_location,
                price_paid=price,
            )
            for c, price in winners
        )
        return BidResponse(request_id=request.request_id, ads=ads)

    def _auction(self, matches: List[Campaign]) -> List:
        """Generalised second-price auction over the matched campaigns.

        Winners pay the next-highest bid (the last winner pays the first
        loser's bid, or its own when there is no loser).
        """
        if not matches:
            return []
        ranked = sorted(matches, key=lambda c: -c.bid_price)
        winners = ranked[: self.max_ads_per_request]
        out = []
        for i, campaign in enumerate(winners):
            if i + 1 < len(ranked):
                price = ranked[i + 1].bid_price
            else:
                price = campaign.bid_price
            out.append((campaign, price))
        return out
