"""MAP estimation attack against the n-fold release (paper Eq. 5).

The paper models the strongest longitudinal adversary as a parameter
estimator: knowing a prior candidate set ``P = {p_1, ..., p_k}`` of
plausible true locations (all within ``r`` of the victim's real location),
the attacker picks the candidate maximising the posterior given the
observed reported locations ``Q = {q_1, ..., q_n}``:

    p_hat = argmax_{p in P} Pr[p | q_1, ..., q_n]

This module implements the estimator for both noise models: under
Gaussian noise the log-likelihood is ``-sum_j |q_j - p|^2 / (2 sigma^2)``
(so the MAP candidate is the one nearest the observation mean — the
sufficient statistic again), and under planar Laplace noise it is
``-eps * sum_j |q_j - p|``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.attacker import AttackerBase
from repro.geo.point import Point, points_to_array

__all__ = [
    "MAPEstimate",
    "gaussian_log_likelihood",
    "laplace_log_likelihood",
    "map_estimate",
    "map_estimate_xy",
    "MAPAttack",
]

LogLikelihood = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MAPEstimate:
    """The estimator's output with its full posterior for inspection."""

    candidate: Point
    index: int
    posterior: np.ndarray


def gaussian_log_likelihood(sigma: float) -> LogLikelihood:
    """Log-likelihood factory for isotropic Gaussian noise at scale ``sigma``."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")

    def loglik(observations: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        # (k,) total log-likelihood per candidate.
        diff = observations[None, :, :] - candidates[:, None, :]
        sq = (diff ** 2).sum(axis=-1)
        return -sq.sum(axis=1) / (2.0 * sigma * sigma)

    return loglik


def laplace_log_likelihood(epsilon: float) -> LogLikelihood:
    """Log-likelihood factory for planar Laplace noise at per-metre ``epsilon``."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")

    def loglik(observations: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        diff = observations[None, :, :] - candidates[:, None, :]
        dist = np.sqrt((diff ** 2).sum(axis=-1))
        return -epsilon * dist.sum(axis=1)

    return loglik


def map_estimate_xy(
    observations: np.ndarray,
    candidates: np.ndarray,
    log_likelihood: LogLikelihood,
    prior: Optional[np.ndarray] = None,
) -> "tuple[int, np.ndarray]":
    """Eq. 5 on raw coordinate arrays: ``(argmax index, posterior)``.

    The columnar fast path: takes ``(m, 2)`` observations and ``(k, 2)``
    candidates directly, skipping Point materialisation.  The posterior is
    normalised in a numerically stable way.
    """
    candidates = np.asarray(candidates, dtype=float)
    if len(candidates) == 0:
        raise ValueError("candidate set must be non-empty")
    observations = np.asarray(observations, dtype=float)
    if len(observations) == 0:
        raise ValueError("observation set must be non-empty")
    log_post = log_likelihood(observations, candidates)
    if prior is not None:
        prior = np.asarray(prior, dtype=float)
        if prior.shape != (len(candidates),):
            raise ValueError("prior must have one weight per candidate")
        if (prior <= 0).any():
            raise ValueError("prior weights must be positive")
        log_post = log_post + np.log(prior)
    log_post = log_post - log_post.max()
    posterior = np.exp(log_post)
    posterior /= posterior.sum()
    return int(np.argmax(posterior)), posterior


def map_estimate(
    observations: Sequence[Point],
    candidates: Sequence[Point],
    log_likelihood: LogLikelihood,
    prior: Optional[np.ndarray] = None,
) -> MAPEstimate:
    """Eq. 5: the maximum-a-posteriori candidate given the observations.

    ``prior`` defaults to uniform over the candidate set.  The returned
    posterior is normalised in a numerically stable way.
    """
    cand_list = list(candidates)
    if not cand_list:
        raise ValueError("candidate set must be non-empty")
    obs = points_to_array(observations)
    cand = points_to_array(cand_list)
    idx, posterior = map_estimate_xy(obs, cand, log_likelihood, prior)
    return MAPEstimate(candidate=cand_list[idx], index=idx, posterior=posterior)


class MAPAttack(AttackerBase):
    """Convenience wrapper binding a noise model to the MAP estimator.

    Satisfies the :class:`repro.core.attacker.Attacker` protocol when a
    candidate set is bound (at construction or via
    :meth:`with_candidates`): ``estimate_xy`` ranks the bound candidates
    by posterior given the coordinates, ``estimate(n)`` does the same
    over the evidence buffer.  Eq. 5 over an explicit candidate set is
    :meth:`map_candidate`.
    """

    name = "map"

    def __init__(
        self,
        log_likelihood: LogLikelihood,
        candidates: Optional[Sequence[Point]] = None,
        prior: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__()
        self._loglik = log_likelihood
        self._candidates = list(candidates) if candidates is not None else None
        self._prior = prior

    @classmethod
    def gaussian(cls, sigma: float, **kwargs: object) -> "MAPAttack":
        """MAP attack against isotropic Gaussian noise of scale sigma."""
        return cls(gaussian_log_likelihood(sigma), **kwargs)  # type: ignore[arg-type]

    @classmethod
    def laplace(cls, epsilon: float, **kwargs: object) -> "MAPAttack":
        """MAP attack against planar Laplace noise with budget epsilon."""
        return cls(laplace_log_likelihood(epsilon), **kwargs)  # type: ignore[arg-type]

    def with_candidates(
        self, candidates: Sequence[Point], prior: Optional[np.ndarray] = None
    ) -> "MAPAttack":
        """A copy of this attack bound to a prior candidate set."""
        clone = MAPAttack(self._loglik, candidates=candidates, prior=prior)
        clone.name = self.name
        return clone

    def map_candidate(
        self,
        observations: Sequence[Point],
        candidates: Sequence[Point],
        prior: Optional[np.ndarray] = None,
    ) -> MAPEstimate:
        """Run Eq. 5 with this attack's bound noise model."""
        return map_estimate(observations, candidates, self._loglik, prior)

    def estimate_xy(self, coords: np.ndarray, n: int) -> List[Point]:
        """The bound candidates ranked by posterior, best first.

        Requires a candidate set (Eq. 5 is an argmax over a prior
        candidate pool, not free-space inference).
        """
        coords = self._check_request(coords, n)
        if self._candidates is None:
            raise ValueError(
                "MAPAttack.estimate_xy needs a bound candidate set; "
                "construct with candidates=... or use with_candidates()"
            )
        cand_xy = points_to_array(self._candidates)
        _, posterior = map_estimate_xy(coords, cand_xy, self._loglik, self._prior)
        order = np.argsort(posterior)[::-1]
        return [self._candidates[int(i)] for i in order[:n]]
