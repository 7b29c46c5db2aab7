"""RTB bid requests, responses, and the bidding log.

The bidding log is the attacker's observable: the paper argues any
advertiser or third-party traffic-verification company can harvest
(device id, reported location, timestamp) triples from the billions of
daily bid requests, which is exactly what :class:`BidLog` records and what
the longitudinal attack consumes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List

import numpy as np

from repro.geo.point import Point

__all__ = ["BidRequest", "Ad", "BidResponse", "BidLogRecord", "BidLog"]


@dataclass(frozen=True)
class BidRequest:
    """One ad request as the network sees it (already obfuscated, ideally)."""

    request_id: str
    device_id: str
    reported_location: Point
    timestamp: float


@dataclass(frozen=True)
class Ad:
    """A served ad creative with its campaign provenance."""

    campaign_id: str
    advertiser_id: str
    business_location: Point
    price_paid: float


@dataclass(frozen=True)
class BidResponse:
    """The network's answer to a bid request: served ads (possibly none)."""

    request_id: str
    ads: tuple

    @property
    def filled(self) -> bool:
        """Whether the auction produced any ads."""
        return bool(self.ads)


@dataclass(frozen=True)
class BidLogRecord:
    """What the honest-but-curious observer retains per request."""

    device_id: str
    reported_location: Point
    timestamp: float
    matched_campaigns: int


class BidLog:
    """Append-only log of bid traffic, queryable per device.

    This is the longitudinal attacker's data source — it deliberately
    exposes exactly (device id, reported location, timestamp) plus match
    metadata, nothing the trusted side keeps private.
    """

    def __init__(self) -> None:
        self._records: List[BidLogRecord] = []
        self._by_device: Dict[str, List[int]] = defaultdict(list)

    def __len__(self) -> int:
        return len(self._records)

    def append(self, record: BidLogRecord) -> None:
        """Append one observed request record."""
        self._by_device[record.device_id].append(len(self._records))
        self._records.append(record)

    def devices(self) -> List[str]:
        """All device ids ever seen in the log."""
        return list(self._by_device)

    def records_for(self, device_id: str) -> List[BidLogRecord]:
        """The device's records in arrival order."""
        return [self._records[i] for i in self._by_device.get(device_id, [])]

    def observations_for(self, device_id: str) -> np.ndarray:
        """The device's reported locations as an ``(n, 2)`` array.

        This is the direct input format of
        :meth:`repro.attack.DeobfuscationAttack.infer_top_locations`.
        """
        recs = self.records_for(device_id)
        if not recs:
            return np.empty((0, 2), dtype=float)
        return np.asarray(
            [(r.reported_location.x, r.reported_location.y) for r in recs],
            dtype=float,
        )

    def __iter__(self) -> Iterator[BidLogRecord]:
        return iter(self._records)
