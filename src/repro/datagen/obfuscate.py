"""Trace obfuscation helper: what the ad network observes under one-time noise.

Bridges the data generators and the mechanisms: given a raw trace and an
LPPM, :func:`one_time_obfuscate` produces the observation stream of the
one-time geo-IND deployments the paper attacks — an independent
perturbation per check-in.  The Edge-PrivLocAd stream is not produced
here: the serve actor (:class:`repro.serve.actor.UserActor`) is its one
definition.

:func:`one_time_obfuscate_xy` is the twin over raw ``(m, 2)`` coordinate
arrays — the columnar pipelines feed it CSR slices directly and skip
``CheckIn`` materialisation.  It is the documented fast-path entry point
of the :class:`repro.core.mechanism.Mechanism` protocol: it routes the
whole stream through the protocol's ``obfuscate_batch`` method where
available and falls back to scalar ``obfuscate`` calls otherwise.  The
object version is a thin wrapper, so both paths consume the mechanism's
RNG in exactly the same call order and produce bit-identical noise.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.mechanism import LPPM
from repro.geo.point import Point
from repro.profiles.checkin import CheckIn, checkins_to_array

__all__ = ["one_time_obfuscate", "one_time_obfuscate_xy"]


def one_time_obfuscate_xy(coords: np.ndarray, mechanism: LPPM) -> np.ndarray:
    """Perturb an ``(m, 2)`` coordinate array independently per row."""
    if mechanism.n_outputs != 1:
        raise ValueError(
            "one-time deployment requires a single-output mechanism, "
            f"got {mechanism.name} with n={mechanism.n_outputs}"
        )
    coords = np.asarray(coords, dtype=float)
    if len(coords) == 0:
        return np.empty((0, 2), dtype=float)
    # Fast path for mechanisms exposing a vectorised batch API.
    batch = getattr(mechanism, "obfuscate_batch", None)
    if batch is not None:
        return np.asarray(batch(coords), dtype=float)
    out = np.empty((len(coords), 2), dtype=float)
    for i, (x, y) in enumerate(coords):
        p = mechanism.obfuscate(Point(float(x), float(y)))[0]
        out[i] = (p.x, p.y)
    return out


def one_time_obfuscate(
    trace: Sequence[CheckIn], mechanism: LPPM
) -> List[CheckIn]:
    """Perturb every check-in independently (one-time geo-IND deployment)."""
    noisy = one_time_obfuscate_xy(checkins_to_array(trace), mechanism)
    return [
        CheckIn(c.timestamp, Point(float(x), float(y)))
        for c, (x, y) in zip(trace, noisy)
    ]
