"""Advertising efficacy (paper Definition 5).

Efficacy is the probability that an ad requested from the AOR is actually
relevant to the user: ``AE = Pr[ad in AOI | ad in AOR]``.  Following the
paper's measurement procedure, ads are sampled uniformly in the AOR — the
disc of targeting radius R around the *selected* reported location — and
counted as relevant when they also fall inside the AOI around the true
location.  The output selection module exists precisely to keep this
probability high as ``n`` grows.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.mechanism import LPPM
from repro.core.posterior import OutputSelector
from repro.geo.geometry import sample_uniform_disc
from repro.geo.point import Point
from repro.metrics.utilization import DEFAULT_TARGETING_RADIUS_M

__all__ = ["efficacy_of_report", "efficacy_samples", "efficacy_samples_batched"]


def efficacy_of_report(
    true_location: Point,
    reported: Point,
    targeting_radius: float = DEFAULT_TARGETING_RADIUS_M,
    ads_per_trial: int = 256,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """AE for one reported location: share of AOR-sampled ads inside the AOI.

    This has the closed form of the lens-overlap fraction; the sampled
    estimate mirrors the paper's Monte-Carlo procedure and exercises the
    same code path the ad simulator uses.
    """
    if targeting_radius <= 0:
        raise ValueError("targeting radius must be positive")
    if ads_per_trial < 1:
        raise ValueError("ads_per_trial must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    ads = sample_uniform_disc(reported, targeting_radius, ads_per_trial, rng)
    d2 = (ads[:, 0] - true_location.x) ** 2 + (ads[:, 1] - true_location.y) ** 2
    return float((d2 <= targeting_radius * targeting_radius).mean())


def efficacy_samples(
    mechanism: LPPM,
    selector: OutputSelector,
    trials: int,
    targeting_radius: float = DEFAULT_TARGETING_RADIUS_M,
    true_location: Point = Point(0.0, 0.0),
    ads_per_trial: int = 256,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """AE distribution over fresh candidate sets + output selections.

    Each trial draws a new candidate set from the mechanism, selects one
    reported location with the given policy, and measures the share of
    AOR ads that are AOI-relevant.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    out = np.empty(trials)
    for t in range(trials):
        # Measurement loop: each trial intentionally draws a fresh
        # candidate set to sample the AE distribution, not to serve ads —
        # nothing is released, so no budget charge applies either.
        # reprolint: disable=BUD002,BUD101
        candidates = mechanism.obfuscate(true_location)
        reported = selector.select(candidates)
        out[t] = efficacy_of_report(
            true_location,
            reported,
            targeting_radius=targeting_radius,
            ads_per_trial=ads_per_trial,
            rng=rng,
        )
    return out


def efficacy_samples_batched(
    mechanism: LPPM,
    selector: OutputSelector,
    trials: int,
    targeting_radius: float = DEFAULT_TARGETING_RADIUS_M,
    true_location: Point = Point(0.0, 0.0),
    ads_per_trial: int = 256,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """AE distribution with every trial batched into array passes.

    Statistically the same measurement as :func:`efficacy_samples` —
    fresh candidate set, one selection, AOR ad sampling per trial — but
    executed as three shard-wide passes: one ``obfuscate_batch`` over the
    tiled true location, one ``select_index_batch``, and one uniform-disc
    ad draw for all ``trials * ads_per_trial`` ads.  The batched calls
    consume the rng in a different order than the per-trial loop, so the
    two variants sample different (equally distributed) AE values.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if targeting_radius <= 0:
        raise ValueError("targeting radius must be positive")
    if ads_per_trial < 1:
        raise ValueError("ads_per_trial must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    tiled = np.tile([[true_location.x, true_location.y]], (trials, 1))
    # Measurement sampling (batched variant of the loop above): the draws
    # estimate the AE distribution and are never released to a consumer.
    # reprolint: disable=BUD101
    candidates = mechanism.obfuscate_batch(tiled)
    if candidates.ndim == 2:  # single-output mechanisms return (trials, 2)
        candidates = candidates[:, None, :]
    idx = selector.select_index_batch(candidates)
    reported = candidates[np.arange(trials), idx]

    # Uniform-disc ad sampling for all trials at once: same draw pattern
    # as sample_uniform_disc (theta first, then radius), one call each.
    total = trials * ads_per_trial
    theta = rng.uniform(0.0, 2.0 * np.pi, total)
    radii = targeting_radius * np.sqrt(rng.uniform(0.0, 1.0, total))
    ad_x = np.repeat(reported[:, 0], ads_per_trial) + radii * np.cos(theta)
    ad_y = np.repeat(reported[:, 1], ads_per_trial) + radii * np.sin(theta)
    d2 = (ad_x - true_location.x) ** 2 + (ad_y - true_location.y) ** 2
    hits = (d2 <= targeting_radius * targeting_radius).reshape(
        trials, ads_per_trial
    )
    return hits.mean(axis=1)
