"""Shared experiment parameters (paper Section VII-A).

The paper's settings: delta = 0.01, epsilon in {1, 1.5}, indistinguishable
radius r in {500, 600, 700, 800} m, targeting radius R = 5 km, confidence
alpha = 0.9, 100,000 Monte-Carlo trials per parameter combination, and
one-time geo-IND levels l in {ln 2, ln 4, ln 6} at 200 m.

``ExperimentScale`` lets every driver run the same sweep at a reduced
trial/user budget by default (laptop-friendly minutes) or at full paper
scale on demand.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.data.tiers import TIERS

__all__ = [
    "PAPER_DELTA",
    "PAPER_EPSILONS",
    "PAPER_RADII_M",
    "PAPER_TARGETING_RADIUS_M",
    "PAPER_ALPHA",
    "PAPER_TRIALS",
    "PAPER_ONETIME_LEVELS",
    "PAPER_ONETIME_RADIUS_M",
    "PAPER_NFOLD_N",
    "ExperimentScale",
    "SMALL",
    "MEDIUM",
    "FULL",
]

PAPER_DELTA = 0.01
PAPER_EPSILONS = (1.0, 1.5)
PAPER_RADII_M = (500.0, 600.0, 700.0, 800.0)
PAPER_TARGETING_RADIUS_M = 5_000.0
PAPER_ALPHA = 0.9
PAPER_TRIALS = 100_000
PAPER_ONETIME_LEVELS = (math.log(2), math.log(4), math.log(6))
PAPER_ONETIME_RADIUS_M = 200.0
PAPER_NFOLD_N = 10
PAPER_N_USERS = 37_262


@dataclass(frozen=True)
class ExperimentScale:
    """How big to run: trials per parameter combo and population size."""

    name: str
    trials: int
    n_users: int
    mc_samples: int = 1024
    seed: int = 20220522

    def __post_init__(self) -> None:
        if self.trials < 1 or self.n_users < 1 or self.mc_samples < 1:
            raise ValueError("scale parameters must be positive")

    def workload(self, tier: Optional[str] = None) -> Dict[str, Any]:
        """The BENCH ``workload`` of a run at this scale; a run over a
        dataset ``tier`` names the tier and its user count instead."""
        if tier is None:
            return dataclasses.asdict(self)
        return {"name": tier, "n_users": TIERS[tier].n_users, "seed": self.seed}


#: Seconds-scale runs for tests and quick iteration.
SMALL = ExperimentScale(name="small", trials=400, n_users=60, mc_samples=512)
#: Minutes-scale default for the benches.
MEDIUM = ExperimentScale(name="medium", trials=3_000, n_users=400, mc_samples=1024)
#: The paper's own scale (hours on a laptop).
FULL = ExperimentScale(
    name="full", trials=PAPER_TRIALS, n_users=PAPER_N_USERS, mc_samples=4096
)
