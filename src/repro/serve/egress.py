"""The serve egress: responses that leave the trust boundary, and their digest.

Everything in this module is *outside* the edge: a
:class:`ServeResponse` is what the service hands back to the ad
ecosystem, so it may only ever carry obfuscated coordinates.  The flow
policy registers this module as a PRIV sink — ``repro lint --flow``
flags any path that feeds a raw check-in coordinate into
:func:`build_response` without an obfuscation sanitizer in between.

The replay digest is a canonical byte encoding of every response, hashed
in global sequence order.  It deliberately covers the *semantic* payload
(who, what path, which coordinates to full float64 precision, which ads
at which prices) and excludes process-local artifacts such as the ad
network's running request ids, so the digest is bit-identical across
shard counts and process backends.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.ads.bidding import Ad
from repro.core.attacker import Attacker
from repro.geo.point import Point

__all__ = [
    "ServeResponse",
    "TrafficSummary",
    "attack_egress",
    "build_response",
    "encode_response",
    "response_digest",
]


@dataclass(frozen=True)
class ServeResponse:
    """One serviced event as seen from outside the trust boundary."""

    seq: int
    user_index: int
    #: Which edge path produced the reported location: ``"top"`` (pinned
    #: obfuscation table + output selection) or ``"nomadic"`` (one-shot
    #: perturbation).
    path: str
    reported_x: float
    reported_y: float
    #: Delivered ads as ``(campaign_id, price_paid)`` pairs, in auction
    #: order.
    ads: Tuple[Tuple[str, float], ...]
    #: Ads received from the network before AoI filtering.
    received: int


def build_response(
    seq: int,
    user_index: int,
    path: str,
    reported: Point,
    delivered: Sequence[Ad],
    received: int,
) -> ServeResponse:
    """Assemble the egress record for one serviced event.

    ``reported`` must already be sanitized (an obfuscation-table
    candidate or a fresh nomadic perturbation) — this function is the
    sink the dataflow policy watches.
    """
    return ServeResponse(
        seq=seq,
        user_index=user_index,
        path=path,
        reported_x=reported.x,
        reported_y=reported.y,
        ads=tuple((ad.campaign_id, ad.price_paid) for ad in delivered),
        received=received,
    )


def encode_response(response: ServeResponse) -> bytes:
    """The canonical byte encoding of one response.

    Fixed-width fields are struct-packed (little-endian; floats as raw
    IEEE-754 bit patterns, so the encoding distinguishes every distinct
    double); variable-width campaign ids are length-prefixed UTF-8.
    """
    parts = [
        struct.pack(
            "<qqB dd H",
            response.seq,
            response.user_index,
            1 if response.path == "top" else 0,
            response.reported_x,
            response.reported_y,
            len(response.ads),
        )
    ]
    for campaign_id, price in response.ads:
        raw = campaign_id.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<d", price))
    parts.append(struct.pack("<q", response.received))
    return b"".join(parts)


def response_digest(responses: Iterable[ServeResponse]) -> str:
    """SHA-256 over all responses in global ``seq`` order (hex).

    This is the replay-mode contract: for a fixed seed and workload the
    digest is identical for any ``--shards`` value.
    """
    hasher = hashlib.sha256()
    for response in sorted(responses, key=lambda r: r.seq):
        hasher.update(encode_response(response))
    return hasher.hexdigest()


@dataclass(frozen=True)
class TrafficSummary:
    """Serving counters over a run's responses (the utility view)."""

    requests: int
    ads_delivered: int
    ads_received: int
    top_path_requests: int

    @classmethod
    def from_responses(cls, responses: Iterable[ServeResponse]) -> "TrafficSummary":
        """Count requests, delivered/received ads and pinned-path hits."""
        requests = delivered = received = top = 0
        for response in responses:
            requests += 1
            delivered += len(response.ads)
            received += response.received
            top += response.path == "top"
        return cls(requests, delivered, received, top)

    @property
    def relevance_ratio(self) -> float:
        """Share of network-returned ads that survived the AOI filter."""
        return self.ads_delivered / self.ads_received if self.ads_received else 1.0

    @property
    def top_path_share(self) -> float:
        """Share of requests served from the pinned top-location path."""
        return self.top_path_requests / self.requests if self.requests else 0.0


def attack_egress(
    responses: Iterable[ServeResponse], attacker: Attacker, n: int = 1
) -> Dict[int, List[Point]]:
    """The provider's longitudinal attack on what crossed the trust boundary.

    Groups the reported coordinates by ``user_index`` (in response
    order) and runs ``attacker.estimate_xy`` on each user's stream;
    returns up to ``n`` inferred locations per user seen in egress.
    """
    streams: Dict[int, List[Tuple[float, float]]] = {}
    for response in responses:
        streams.setdefault(response.user_index, []).append(
            (response.reported_x, response.reported_y)
        )
    return {
        user_index: attacker.estimate_xy(np.asarray(stream, dtype=float), n)
        for user_index, stream in sorted(streams.items())
    }
