"""Bootstrap confidence intervals for experiment statistics.

The paper reports point estimates; for a reproduction it is good practice
to attach uncertainty, especially at reduced trial counts.  This module
implements the percentile bootstrap for means and proportions for
downstream users.  No experiment driver reports a confidence column yet:
the tables carry point estimates only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = ["ConfidenceInterval", "bootstrap_ci", "proportion_ci"]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided percentile-bootstrap interval."""

    estimate: float
    low: float
    high: float
    confidence: float

    def __contains__(self, value: float) -> bool:
        return self.low <= value <= self.high

    @property
    def width(self) -> float:
        """Width of the interval (high - low)."""
        return self.high - self.low

    def __str__(self) -> str:  # pragma: no cover - formatting only
        return (
            f"{self.estimate:.4g} "
            f"[{self.low:.4g}, {self.high:.4g}] @{self.confidence:.0%}"
        )


def bootstrap_ci(
    samples: Sequence[float],
    statistic: Callable[[np.ndarray], float] = np.mean,
    confidence: float = 0.95,
    n_resamples: int = 2_000,
    rng: Optional[np.random.Generator] = None,
) -> ConfidenceInterval:
    """Percentile bootstrap CI of ``statistic`` over ``samples``."""
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if n_resamples < 1:
        raise ValueError("n_resamples must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    estimate = float(statistic(arr))
    idx = rng.integers(0, arr.size, size=(n_resamples, arr.size))
    stats = np.array([float(statistic(arr[row])) for row in idx])
    alpha = (1.0 - confidence) / 2.0
    return ConfidenceInterval(
        estimate=estimate,
        low=float(np.quantile(stats, alpha)),
        high=float(np.quantile(stats, 1.0 - alpha)),
        confidence=confidence,
    )


def proportion_ci(
    successes: int,
    total: int,
    confidence: float = 0.95,
    n_resamples: int = 2_000,
    rng: Optional[np.random.Generator] = None,
) -> ConfidenceInterval:
    """Bootstrap CI for a success proportion (e.g. attack success rate)."""
    if total < 1:
        raise ValueError("total must be positive")
    if not 0 <= successes <= total:
        raise ValueError("successes must lie in [0, total]")
    samples = np.zeros(total)
    samples[:successes] = 1.0
    return bootstrap_ci(
        samples, statistic=np.mean, confidence=confidence,
        n_resamples=n_resamples, rng=rng,
    )
