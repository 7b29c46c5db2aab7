"""Bootstrap confidence intervals for experiment statistics.

The paper reports point estimates; for a reproduction it is good practice
to attach uncertainty, especially at reduced trial counts.  This module
implements the percentile bootstrap for means and proportions.  Figure 6
(:mod:`repro.experiments.fig6_attack`) attaches a :func:`proportion_ci`
note to each defended row's top-1 @ 500 m rate, the cell whose
paper-vs-measured gap is within sampling noise at bench scale.
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
    rng = _checked_rng(confidence, n_resamples, rng)
    idx = rng.integers(0, arr.size, size=(n_resamples, arr.size))
    stats = np.array([float(statistic(arr[row])) for row in idx])
    return _percentile_interval(float(statistic(arr)), stats, confidence)


def _checked_rng(
    confidence: float, n_resamples: int, rng: Optional[np.random.Generator]
) -> np.random.Generator:
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if n_resamples < 1:
        raise ValueError("n_resamples must be positive")
    return np.random.default_rng(0) if rng is None else rng


def _percentile_interval(
    estimate: float, stats: np.ndarray, confidence: float
) -> ConfidenceInterval:
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
    """Bootstrap CI for a success proportion (e.g. attack success rate).

    Resampling ``total`` 0/1 outcomes with replacement and taking the mean
    is one ``Binomial(total, p) / total`` draw, so each resample is drawn
    that way: the same interval in ``O(n_resamples)`` memory, which keeps
    the note affordable at million-user tiers.
    """
    if total < 1:
        raise ValueError("total must be positive")
    if not 0 <= successes <= total:
        raise ValueError("successes must lie in [0, total]")
    rng = _checked_rng(confidence, n_resamples, rng)
    rate = successes / total
    stats = rng.binomial(total, rate, size=n_resamples) / total
    return _percentile_interval(rate, stats, confidence)
