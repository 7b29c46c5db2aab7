"""Population-level obfuscation kernel: whole CSR shards per array pass.

:func:`one_time_laplace_population` is the one-time geo-IND baseline the
paper attacks: every check-in of every user perturbed independently.
(The Edge-PrivLocAd stream has no batch kernel: it is released only by
the serve actor, :class:`repro.serve.actor.UserActor`, whose windowed
tops and pins are per-event state.)

The kernel preserves the per-user ``SeedSequence.spawn`` stream
discipline of :mod:`repro.kernels.gaussian`: one
:func:`~repro.kernels.gaussian.user_uniforms` call seeds every user's
stream for the shard in one array pass and reads each user's uniforms as
one buffer, which :func:`~repro.kernels.gaussian.split_user_blocks` cuts
in the exact call order of the per-user reference path
(:func:`repro.datagen.obfuscate.one_time_obfuscate_xy`).  The Lambert-W
radius inversion and the polar conversion run batched over the whole
shard.  Results are bit-identical to the reference, per user, and
therefore invariant to worker chunking.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.sampling import (
    planar_laplace_radius_from_uniform,
    polar_to_cartesian,
)
from repro.kernels.gaussian import split_user_blocks, user_uniforms

__all__ = ["one_time_laplace_population"]

_TWO_PI = 2.0 * math.pi


def one_time_laplace_population(
    xs: np.ndarray,
    ys: np.ndarray,
    offsets: np.ndarray,
    epsilon: float,
    seed: int,
    user_ids: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One-time planar-Laplace obfuscation of a whole shard.

    Bit-identical, per user, to ``one_time_obfuscate_xy`` with a
    ``PlanarLaplaceMechanism`` on that user's spawned rng; the Lambert-W
    radius inversion — the expensive part — runs once over all users.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    offsets = np.asarray(offsets, dtype=np.int64)
    n_users = len(offsets) - 1
    if user_ids is None:
        user_ids = np.arange(n_users, dtype=np.int64)
    m_u = np.diff(offsets)
    # See pin_candidates_population: one buffer read per user reproduces
    # the reference's theta-then-p uniform pair exactly.
    theta, p = split_user_blocks(
        user_uniforms(seed, user_ids, 2 * m_u), (m_u, m_u)
    )
    theta *= _TWO_PI
    noise = polar_to_cartesian(
        planar_laplace_radius_from_uniform(p, epsilon), theta
    )
    return np.column_stack([xs, ys]) + noise
