"""Bayesian posterior remapping of obfuscated locations.

The paper's related work (Bordenabe et al. CCS'14, Chatzikokolakis et al.
PETS'17) improves the *utility* of a geo-IND release by post-processing:
given the reported location ``z``, a public prior over plausible user
locations, and the mechanism's noise likelihood, replace ``z`` with the
point minimising the posterior expected loss.  Remapping is pure
post-processing, so it costs no privacy budget.

Two standard loss functions are provided:

* squared Euclidean loss — the optimum is the posterior mean;
* Euclidean (absolute) loss — the optimum is the posterior geometric
  median, computed with Weiszfeld's algorithm.

This module also enables an instructive negative result reproduced in the
benches: remapping *concentrates* repeated reports of the same true
location, so while it improves per-report utility it makes the
longitudinal attack strictly easier — post-processing helps utility, only
the n-fold permanent release helps longitudinal privacy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.geo.point import Point, points_to_array

__all__ = [
    "LocationPrior",
    "BayesianRemap",
    "geometric_median",
]

#: log-likelihood callback: (reported (2,), support (k, 2)) -> (k,) values.
NoiseLogLikelihood = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LocationPrior:
    """A discrete prior over plausible true locations.

    In the LBA setting the prior comes from public knowledge: population
    density, road networks, or (for the strongest adversary/remapper) the
    user's own historical profile.
    """

    support: np.ndarray  # (k, 2) candidate coordinates
    weights: np.ndarray  # (k,) probabilities

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if support.ndim != 2 or support.shape[1] != 2:
            raise ValueError(f"support must be (k, 2), got {support.shape}")
        if weights.shape != (len(support),):
            raise ValueError("weights must have one entry per support point")
        if len(support) == 0:
            raise ValueError("prior support must be non-empty")
        if (weights < 0).any() or weights.sum() <= 0:
            raise ValueError("weights must be non-negative with positive mass")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights / weights.sum())

    @classmethod
    def uniform_grid(
        cls, center: Point, half_extent: float, step: float
    ) -> "LocationPrior":
        """A uniform prior on a square grid around ``center``."""
        if half_extent <= 0 or step <= 0:
            raise ValueError("half_extent and step must be positive")
        offsets = np.arange(-half_extent, half_extent + step / 2, step)
        xx, yy = np.meshgrid(center.x + offsets, center.y + offsets)
        support = np.column_stack([xx.ravel(), yy.ravel()])
        return cls(support=support, weights=np.ones(len(support)))

    @classmethod
    def from_profile(cls, locations: Sequence[Point], frequencies: Sequence[float]) -> "LocationPrior":
        """A prior proportional to a (public or leaked) location profile."""
        return cls(
            support=points_to_array(locations),
            weights=np.asarray(list(frequencies), dtype=float),
        )


def geometric_median(
    points: np.ndarray,
    weights: np.ndarray,
    tol: float = 1e-6,
    max_iter: int = 200,
) -> np.ndarray:
    """Weighted geometric median via Weiszfeld's fixed-point iteration."""
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if len(points) == 0:
        raise ValueError("need at least one point")
    estimate = np.average(points, axis=0, weights=weights)
    for _ in range(max_iter):
        d = np.hypot(points[:, 0] - estimate[0], points[:, 1] - estimate[1])
        at_point = d < 1e-12
        if at_point.any():
            # The median coincides with a support point of positive weight.
            if weights[at_point].sum() >= weights.sum() / 2:
                return points[at_point][0]
            d = np.where(at_point, 1e-12, d)
        w = weights / d
        new_estimate = (points * w[:, None]).sum(axis=0) / w.sum()
        if np.hypot(*(new_estimate - estimate)) < tol:
            return new_estimate
        estimate = new_estimate
    return estimate


class BayesianRemap:
    """Posterior expected-loss remapping of reported locations."""

    def __init__(
        self,
        prior: LocationPrior,
        log_likelihood: NoiseLogLikelihood,
        loss: str = "squared",
    ) -> None:
        if loss not in ("squared", "euclidean"):
            raise ValueError(f"unknown loss: {loss!r} (use 'squared' or 'euclidean')")
        self.prior = prior
        self.loss = loss
        self._loglik = log_likelihood

    def posterior(self, reported: Point) -> np.ndarray:
        """Posterior over the prior support given the reported location."""
        z = np.array([reported.x, reported.y])
        log_post = self._loglik(z, self.prior.support) + np.log(self.prior.weights)
        log_post -= log_post.max()
        post = np.exp(log_post)
        return post / post.sum()

    def remap(self, reported: Point) -> Point:
        """The posterior-optimal replacement for the reported location."""
        post = self.posterior(reported)
        if self.loss == "squared":
            optimum = (self.prior.support * post[:, None]).sum(axis=0)
        else:
            optimum = geometric_median(self.prior.support, post)
        return Point(float(optimum[0]), float(optimum[1]))

    def remap_batch(self, reported: Sequence[Point]) -> list:
        """Remap a stream of reports (each independently — post-processing)."""
        return [self.remap(z) for z in reported]


def gaussian_noise_loglik(sigma: float) -> NoiseLogLikelihood:
    """Noise model for remapping Gaussian-perturbed reports."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")

    def loglik(z: np.ndarray, support: np.ndarray) -> np.ndarray:
        d2 = (support[:, 0] - z[0]) ** 2 + (support[:, 1] - z[1]) ** 2
        return -d2 / (2.0 * sigma * sigma)

    return loglik


def planar_laplace_noise_loglik(epsilon: float) -> NoiseLogLikelihood:
    """Noise model for remapping planar-Laplace-perturbed reports."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")

    def loglik(z: np.ndarray, support: np.ndarray) -> np.ndarray:
        d = np.hypot(support[:, 0] - z[0], support[:, 1] - z[1])
        return -epsilon * d

    return loglik


__all__ += ["gaussian_noise_loglik", "planar_laplace_noise_loglik"]
