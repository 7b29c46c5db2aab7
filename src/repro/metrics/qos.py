"""Quality-of-service loss metrics for LPPMs.

Beyond the paper's two advertising metrics (utilization rate, efficacy),
the broader geo-IND literature (Bordenabe et al., Chatzikokolakis et al.)
scores mechanisms by *expected distance loss* between the true and
reported location.  We implement it so the Bayesian-remapping extension
can be evaluated on the metric it optimises, and so mechanisms can be
compared on a selector-independent axis.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.core.mechanism import LPPM
from repro.core.posterior import OutputSelector
from repro.geo.point import Point

__all__ = ["expected_distance_loss", "report_distances"]

PostProcess = Callable[[Point], Point]


def report_distances(
    mechanism: LPPM,
    trials: int,
    true_location: Point = Point(0.0, 0.0),
    selector: Optional[OutputSelector] = None,
    post_process: Optional[PostProcess] = None,
) -> np.ndarray:
    """Distances between the true location and the (processed) reports.

    For multi-output mechanisms a selector must pick the reported
    candidate; ``post_process`` (e.g. Bayesian remapping) is applied to
    the selected report before measuring.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    out = np.empty(trials)
    for t in range(trials):
        # Measurement loop: fresh draws per trial sample the QoS-loss
        # distribution; no release leaves this function, so no charge.
        # reprolint: disable=BUD002,BUD101
        candidates = mechanism.obfuscate(true_location)
        if len(candidates) == 1:
            reported = candidates[0]
        else:
            if selector is None:
                raise ValueError(
                    "multi-output mechanisms need a selector for QoS measurement"
                )
            reported = selector.select(candidates)
        if post_process is not None:
            reported = post_process(reported)
        out[t] = true_location.distance_to(reported)
    return out


def expected_distance_loss(
    mechanism: LPPM,
    trials: int,
    true_location: Point = Point(0.0, 0.0),
    selector: Optional[OutputSelector] = None,
    post_process: Optional[PostProcess] = None,
) -> float:
    """Monte-Carlo estimate of E[dist(true, reported)]."""
    return float(
        report_distances(
            mechanism,
            trials,
            true_location=true_location,
            selector=selector,
            post_process=post_process,
        ).mean()
    )
