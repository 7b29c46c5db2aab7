"""The top-n location de-obfuscation attack (paper Algorithm 1).

Given a user's stream of *obfuscated* check-ins, the attack repeatedly:

1. clusters the remaining check-ins by connectivity at threshold ``theta``;
2. takes the largest cluster;
3. refines it with the TRIMMING procedure at radius ``r_alpha``;
4. reports the refined centroid as the next inferred top location; and
5. removes the cluster's members from the pool.

``theta`` and ``r_alpha`` are derived from the attacked mechanism's noise
distribution: ``r_alpha`` is the noise-radius tail quantile at the paper's
confidence ``alpha = 0.05`` (Eq. 4), and ``theta`` defaults to the median
noise radius, which keeps perturbations of one true location mutually
connected once a few hundred observations have accumulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

from repro.attack.clustering import largest_component_indices
from repro.attack.trimming import trim_cluster_xy
from repro.core.attacker import AttackerBase
from repro.core.mechanism import LPPM
from repro.geo.point import Point
from repro.profiles.checkin import CheckIn, checkins_to_array

__all__ = ["DeobfuscationAttack", "InferredLocation", "attack_params_for"]

#: The paper's trimming confidence level (it uses r_0.05).
DEFAULT_ALPHA = 0.05


@dataclass(frozen=True)
class InferredLocation:
    """One recovered top location with supporting-evidence statistics."""

    rank: int
    location: Point
    support: int
    trim_iterations: int


@dataclass(frozen=True)
class AttackParameters:
    """The attack's two tunables, both in metres."""

    theta: float
    r_alpha: float

    def __post_init__(self) -> None:
        if self.theta <= 0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if self.r_alpha <= 0:
            raise ValueError(f"r_alpha must be positive, got {self.r_alpha}")


def attack_params_for(
    mechanism: LPPM, alpha: float = DEFAULT_ALPHA
) -> AttackParameters:
    """Derive (theta, r_alpha) from the attacked mechanism's noise tails.

    ``r_alpha`` is the quantile the paper defines in Eq. 4; ``theta`` is
    the median noise radius, a scale at which observations of the same
    location are dense enough to connect.
    """
    return AttackParameters(
        theta=mechanism.noise_tail_radius(0.5),
        r_alpha=mechanism.noise_tail_radius(alpha),
    )


class DeobfuscationAttack(AttackerBase):
    """The longitudinal de-obfuscation attack (Algorithm 1).

    Satisfies the :class:`repro.core.attacker.Attacker` protocol:
    ``estimate_xy``/``estimate`` are the canonical entry points;
    :meth:`infer_top_locations` remains the *detailed* API returning
    :class:`InferredLocation` records with support and trim statistics.
    """

    name = "algorithm1"

    def __init__(self, theta: float, r_alpha: float, use_trimming: bool = True) -> None:
        super().__init__()
        self.params = AttackParameters(theta=theta, r_alpha=r_alpha)
        #: Trimming can be disabled for the ablation study; the attack then
        #: reports raw largest-cluster centroids.
        self.use_trimming = use_trimming

    @classmethod
    def against(
        cls, mechanism: LPPM, alpha: float = DEFAULT_ALPHA, use_trimming: bool = True
    ) -> "DeobfuscationAttack":
        """Build an attack tuned to a specific mechanism's noise scale."""
        params = attack_params_for(mechanism, alpha)
        return cls(theta=params.theta, r_alpha=params.r_alpha, use_trimming=use_trimming)

    def infer_top_locations(
        self, observations: "np.ndarray | Sequence[CheckIn]", n: int
    ) -> List[InferredLocation]:
        """Recover up to ``n`` top locations from obfuscated observations.

        ``observations`` is either an ``(m, 2)`` coordinate array or a
        sequence of check-ins.  Fewer than ``n`` results are returned when
        the pool is exhausted first.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        coords = self._as_coords(observations)
        return list(self._infer(coords, n))

    def estimate_xy(self, coords: np.ndarray, n: int) -> List[Point]:
        """Canonical batch path: the locations only, in support order."""
        coords = self._check_request(coords, n)
        return [r.location for r in self._infer(coords, n)]

    def _as_coords(self, observations) -> np.ndarray:
        if isinstance(observations, np.ndarray):
            coords = np.asarray(observations, dtype=float)
            if coords.ndim != 2 or coords.shape[1] != 2:
                raise ValueError(f"expected (m, 2) array, got {coords.shape}")
            return coords
        return checkins_to_array(observations)

    def _infer(self, coords: np.ndarray, n: int) -> Iterator[InferredLocation]:
        # Columnar inner loop: the winning cluster travels as an index
        # array and the trim fixed point as a boolean mask — no Cluster or
        # TrimResult objects for work that is discarded every iteration.
        available = np.ones(len(coords), dtype=bool)
        for rank in range(1, n + 1):
            active_idx = np.flatnonzero(available)
            if len(active_idx) == 0:
                return
            active_coords = coords[active_idx]
            seed_local = largest_component_indices(active_coords, self.params.theta)
            if len(seed_local) == 0:
                return
            seed_global = active_idx[seed_local]
            if self.use_trimming:
                member_mask, (cx, cy), iterations, _ = trim_cluster_xy(
                    coords, seed_global, self.params.r_alpha, available=available
                )
                support = int(member_mask.sum())
            else:
                member_mask = np.zeros(len(coords), dtype=bool)
                member_mask[seed_global] = True
                cx, cy = coords[seed_global].mean(axis=0)
                cx, cy = float(cx), float(cy)
                support = len(seed_global)
                iterations = 0
            yield InferredLocation(
                rank=rank,
                location=Point(cx, cy),
                support=support,
                trim_iterations=iterations,
            )
            available &= ~member_mask
