"""The output selection module (paper Section V-D).

Per LBA request, draws the reported location from the pinned candidate set
via the posterior-based sampler (Algorithm 4).  Selection is pure
post-processing of the already-released candidates, so it costs no privacy
budget no matter how many requests are served.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.posterior import OutputSelector, PosteriorSelector
from repro.geo.point import Point
from repro.obs.trace import enabled as _obs_enabled
from repro.obs.trace import get_registry as _obs_registry

__all__ = ["OutputSelectionModule"]


class OutputSelectionModule:
    """Wraps a selection policy and counts selections for the benches."""

    def __init__(self, selector: OutputSelector) -> None:
        self.selector = selector
        self.selection_count = 0

    @classmethod
    def posterior(
        cls, sigma: float, rng: Optional[np.random.Generator] = None
    ) -> "OutputSelectionModule":
        """The paper's default: posterior-weighted sampling at noise scale sigma."""
        return cls(PosteriorSelector(sigma, rng=rng))

    def select(
        self, candidates: Sequence[Point], weights: Optional[np.ndarray] = None
    ) -> Point:
        """Draw the location to report for one ad request.

        ``weights``: the set's precomputed selection distribution, if any.
        """
        self.selection_count += 1
        if _obs_enabled():
            _obs_registry().counter("edge.selection.requests").inc()
        return self.selector.select(candidates, weights)

    def select_batch(self, candidates: Sequence[Point], size: int) -> List[Point]:
        """Draw reported locations for ``size`` requests against one candidate set.

        Used by the scalability bench (Table III), which serves thousands
        of users per tick.
        """
        if size < 1:
            raise ValueError("size must be positive")
        cand = list(candidates)
        probs = self.selector.probabilities(cand)
        idx = self.selector.rng.choice(len(cand), size=size, p=probs)
        self.selection_count += size
        if _obs_enabled():
            _obs_registry().counter("edge.selection.requests").inc(size)
        return [cand[int(i)] for i in idx]
