"""Edge-side privacy risk assessment (paper Section I / V-A, first role).

The paper tasks the trusted edge with three jobs; the first is to "assess
the risk of location privacy breaches ... and adopt the appropriate LPPM".
This module implements that assessment:

* a *static* risk score from the user's location statistics — low entropy
  plus many observations is exactly the profile the longitudinal attack
  exploits (Figure 3), so those users need the permanent n-fold release
  while high-entropy, low-volume users are fine with one-time geo-IND;
* a *red-team* check: the edge simulates the longitudinal attack against
  the user's own outgoing report stream and measures how close the best
  inferred location comes to any true top location — a direct, empirical
  exposure margin;
* a mechanism recommendation mapping the assessed risk to an LPPM
  configuration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Sequence


from repro.attack.deobfuscation import DeobfuscationAttack
from repro.core.mechanism import LPPM
from repro.geo.point import Point
from repro.profiles.checkin import CheckIn
from repro.profiles.profile import LocationProfile

__all__ = ["RiskLevel", "RiskAssessment", "RiskAssessor", "self_attack_margin"]


class RiskLevel(enum.Enum):
    """Coarse longitudinal-exposure risk levels."""

    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


@dataclass(frozen=True)
class RiskAssessment:
    """The edge's verdict for one user."""

    level: RiskLevel
    entropy: float
    observations: int
    top1_share: float
    reasons: tuple

    @property
    def needs_permanent_obfuscation(self) -> bool:
        """Should this user's top locations get the n-fold treatment?"""
        return self.level is not RiskLevel.LOW


class RiskAssessor:
    """Scores a user's longitudinal-exposure risk from their statistics.

    Thresholds default to the dataset's structure: the paper's Figure 3
    shows entropy below 2 for 88.8 % of users and declining with
    observation count — i.e. almost everyone trends HIGH over time, which
    is the paper's point.
    """

    def __init__(
        self,
        entropy_threshold: float = 2.0,
        observation_threshold: int = 200,
        top1_share_threshold: float = 0.5,
        min_evidence: int = 50,
    ) -> None:
        if entropy_threshold <= 0:
            raise ValueError("entropy threshold must be positive")
        if observation_threshold < 1:
            raise ValueError("observation threshold must be positive")
        if not 0.0 < top1_share_threshold < 1.0:
            raise ValueError("top-1 share threshold must be in (0, 1)")
        if min_evidence < 1:
            raise ValueError("min_evidence must be positive")
        self.entropy_threshold = entropy_threshold
        self.observation_threshold = observation_threshold
        self.top1_share_threshold = top1_share_threshold
        #: Entropy/top-share signals need this many check-ins to count:
        #: a handful of observations always has low entropy (bounded by
        #: ln M), which is noise, not routine.
        self.min_evidence = min_evidence

    def assess(self, profile: LocationProfile) -> RiskAssessment:
        """Static assessment from the user's (true-side) location profile."""
        entropy = profile.entropy()
        observations = profile.total_checkins
        top1_share = (
            profile[0].frequency / observations if observations else 0.0
        )
        reasons: List[str] = []
        signals = 0
        evidence = observations >= self.min_evidence
        if evidence and entropy < self.entropy_threshold:
            signals += 1
            reasons.append(
                f"low location entropy ({entropy:.2f} < {self.entropy_threshold})"
            )
        if observations >= self.observation_threshold:
            signals += 1
            reasons.append(
                f"long observation history ({observations} check-ins)"
            )
        if evidence and top1_share >= self.top1_share_threshold:
            signals += 1
            reasons.append(
                f"dominant top-1 location ({top1_share:.0%} of activity)"
            )
        level = (
            RiskLevel.HIGH
            if signals >= 2
            else RiskLevel.MEDIUM
            if signals == 1
            else RiskLevel.LOW
        )
        if not reasons:
            reasons.append("diffuse, low-volume mobility")
        return RiskAssessment(
            level=level,
            entropy=entropy,
            observations=observations,
            top1_share=top1_share,
            reasons=tuple(reasons),
        )


def self_attack_margin(
    reported_stream: Sequence[CheckIn],
    true_tops: Sequence[Point],
    mechanism: LPPM,
    top_n: int = 2,
) -> float:
    """Red-team margin: how close the attack gets to any true top location.

    The edge — which knows both the outgoing obfuscated stream and the
    true tops — runs the paper's own de-obfuscation attack against itself
    and reports the minimum distance between any inferred location and any
    true top.  A small margin means the current LPPM configuration is
    failing this user; the paper's one-time deployments show margins of
    tens of metres, the permanent n-fold deployment of kilometres.
    """
    if not true_tops:
        raise ValueError("need at least one true top location")
    if not reported_stream:
        return float("inf")
    attack = DeobfuscationAttack.against(mechanism)
    inferred = attack.infer_top_locations(list(reported_stream), top_n)
    if not inferred:
        return float("inf")
    return min(
        guess.location.distance_to(top)
        for guess in inferred
        for top in true_tops
    )
