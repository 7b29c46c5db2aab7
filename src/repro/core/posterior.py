"""Posterior-based output selection (Algorithm 4 / Section V-D).

Given the ``n`` pinned candidate locations for a top location, the output
selection module picks one candidate per ad request.  The paper samples
candidate ``q_i`` with probability proportional to the Gaussian posterior
density of the true location evaluated at ``q_i`` (Eq. 17-18): the
posterior is centred at the candidates' mean (the sufficient statistic),
so candidates close to the mean — hence likely close to the true location —
are chosen more often, boosting advertising efficacy *without any privacy
loss* (selection is pure post-processing of already-released outputs).

Note on the scale parameter: the posterior of the true location given n
independent N(p, sigma^2) candidates has scale ``sigma / sqrt(n)`` (the
sufficient statistic's standard deviation), so that is the ``sigma`` to
pass here — :attr:`repro.core.gaussian.NFoldGaussianMechanism.posterior_sigma`
exposes it.  Using the raw per-candidate sigma makes the weights nearly
uniform and forfeits the module's efficacy benefit.
"""

from __future__ import annotations

import abc
import math
from typing import Optional, Sequence

import numpy as np

from repro.geo.point import Point, centroid, points_to_array

__all__ = [
    "posterior_density",
    "posterior_weights",
    "posterior_weights_array",
    "OutputSelector",
    "PosteriorSelector",
    "UniformSelector",
]


def posterior_density(
    candidates: Sequence[Point], sigma: float, at: Point
) -> float:
    """Gaussian posterior density of the true location evaluated at ``at``.

    Eq. 17: ``f(x, y) = 1/(2 pi sigma^2) * exp(-((x-xbar)^2+(y-ybar)^2) / (2 sigma^2))``
    where ``(xbar, ybar)`` is the candidate mean.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    mean = centroid(candidates)
    d2 = (at.x - mean.x) ** 2 + (at.y - mean.y) ** 2
    return math.exp(-d2 / (2.0 * sigma * sigma)) / (2.0 * math.pi * sigma * sigma)


def posterior_weights(candidates: Sequence[Point], sigma: float) -> np.ndarray:
    """Normalised selection probabilities over the candidates (Eq. 18).

    Computed in a numerically stable way (log-densities shifted by their
    maximum before exponentiation) so that widely scattered candidates do
    not underflow to all-zero weights.
    """
    if not candidates:
        raise ValueError("candidate set must be non-empty")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    arr = points_to_array(candidates)
    mean = arr.mean(axis=0)
    d2 = ((arr - mean) ** 2).sum(axis=1)
    log_density = -d2 / (2.0 * sigma * sigma)
    log_density -= log_density.max()
    weights = np.exp(log_density)
    return weights / weights.sum()


def posterior_weights_array(candidate_sets: np.ndarray, sigma: float) -> np.ndarray:
    """Eq. 18 weights for ``m`` candidate sets at once.

    ``candidate_sets`` is an ``(m, n, 2)`` array — one pinned n-candidate
    set per row — and the result is the matching ``(m, n)`` row-stochastic
    weight matrix.  Same stabilised log-density computation as
    :func:`posterior_weights`, batched over the population so the edge can
    prepare every user's selection distribution in one pass.
    """
    candidate_sets = np.asarray(candidate_sets, dtype=float)
    if candidate_sets.ndim != 3 or candidate_sets.shape[2] != 2:
        raise ValueError(f"expected (m, n, 2) array, got {candidate_sets.shape}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    means = candidate_sets.mean(axis=1, keepdims=True)
    d2 = ((candidate_sets - means) ** 2).sum(axis=2)
    log_density = -d2 / (2.0 * sigma * sigma)
    log_density -= log_density.max(axis=1, keepdims=True)
    weights = np.exp(log_density)
    return weights / weights.sum(axis=1, keepdims=True)


def _sample_rows(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per row of a row-stochastic ``(m, n)`` matrix.

    Inverse-CDF over the row cumsums: a single uniform batch replaces
    ``m`` python-level ``Generator.choice`` calls.
    """
    cdf = np.cumsum(probs, axis=1)
    u = rng.random(len(probs))
    idx = (u[:, None] > cdf).sum(axis=1)
    return np.minimum(idx, probs.shape[1] - 1)


class OutputSelector(abc.ABC):
    """Policy that picks one reported location from a pinned candidate set."""

    name: str = "selector"

    def __init__(self, rng: Optional[np.random.Generator] = None) -> None:
        # Seeded fallback, matching LPPM: reproducible unless the caller
        # supplies their own Generator.
        self._rng = rng if rng is not None else np.random.default_rng(0)

    @property
    def rng(self) -> np.random.Generator:
        """The Generator this selector draws from."""
        return self._rng

    @abc.abstractmethod
    def probabilities(self, candidates: Sequence[Point]) -> np.ndarray:
        """Selection distribution over the candidates."""

    def select(
        self, candidates: Sequence[Point], weights: Optional[np.ndarray] = None
    ) -> Point:
        """Sample one candidate according to :meth:`probabilities`.

        ``weights`` may carry the set's precomputed :meth:`probabilities`
        (a pinned set's never change); the draw is identical either way.
        """
        candidates = list(candidates)
        probs = self.probabilities(candidates) if weights is None else weights
        idx = int(self._rng.choice(len(candidates), p=probs))
        return candidates[idx]

    def select_index(self, candidates: Sequence[Point]) -> int:
        """Sample and return the index of the chosen candidate."""
        probs = self.probabilities(list(candidates))
        return int(self._rng.choice(len(probs), p=probs))

    def probabilities_array(self, candidate_sets: np.ndarray) -> np.ndarray:
        """Selection distributions for ``(m, n, 2)`` candidate sets at once.

        Subclasses override with a vectorised computation; the base
        implementation falls back to one :meth:`probabilities` call per set.
        """
        candidate_sets = np.asarray(candidate_sets, dtype=float)
        return np.stack(
            [
                self.probabilities([Point(float(x), float(y)) for x, y in cs])
                for cs in candidate_sets
            ]
        )

    def select_index_batch(self, candidate_sets: np.ndarray) -> np.ndarray:
        """One sampled candidate index per set — ``(m,)`` for ``(m, n, 2)``.

        The batched counterpart of :meth:`select_index`: the whole
        population's per-tick selections come from one uniform draw.
        """
        candidate_sets = np.asarray(candidate_sets, dtype=float)
        if candidate_sets.ndim != 3 or candidate_sets.shape[2] != 2:
            raise ValueError(f"expected (m, n, 2) array, got {candidate_sets.shape}")
        if len(candidate_sets) == 0:
            return np.empty(0, dtype=np.int64)
        return _sample_rows(self.probabilities_array(candidate_sets), self._rng)


class PosteriorSelector(OutputSelector):
    """The paper's Algorithm 4: sample with posterior-proportional weights."""

    name = "posterior"

    def __init__(self, sigma: float, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(rng)
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.sigma = sigma

    def probabilities(self, candidates: Sequence[Point]) -> np.ndarray:
        """Eq. 18 posterior-proportional weights."""
        return posterior_weights(candidates, self.sigma)

    def probabilities_array(self, candidate_sets: np.ndarray) -> np.ndarray:
        """Vectorised Eq. 18 weights over all candidate sets."""
        return posterior_weights_array(candidate_sets, self.sigma)


class UniformSelector(OutputSelector):
    """Ablation baseline: pick any candidate uniformly at random."""

    name = "uniform"

    def probabilities(self, candidates: Sequence[Point]) -> np.ndarray:
        """Equal weight on every candidate."""
        if not candidates:
            raise ValueError("candidate set must be non-empty")
        n = len(candidates)
        return np.full(n, 1.0 / n)

    def probabilities_array(self, candidate_sets: np.ndarray) -> np.ndarray:
        """Uniform weights for every set."""
        candidate_sets = np.asarray(candidate_sets, dtype=float)
        m, n = candidate_sets.shape[0], candidate_sets.shape[1]
        return np.full((m, n), 1.0 / n)
