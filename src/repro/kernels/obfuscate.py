"""Population-level obfuscation kernels: whole CSR shards per array pass.

Two deployment styles, mirroring :mod:`repro.datagen.obfuscate`:

* :func:`one_time_laplace_population` — the one-time geo-IND baseline the
  paper attacks: every check-in of every user perturbed independently.
* :func:`permanent_obfuscate_population` — Edge-PrivLocAd: each user's
  eta-frequent locations get a pinned n-fold candidate set, matched
  check-ins report a posterior-selected candidate, nomadic check-ins go
  through a single-output Gaussian.

Both kernels preserve the per-user ``SeedSequence.spawn`` stream
discipline of :mod:`repro.kernels.gaussian`: one
:func:`~repro.kernels.gaussian.user_uniforms` call seeds every user's
stream for the shard in one array pass and reads each user's uniforms as
one buffer, which :func:`~repro.kernels.gaussian.split_user_blocks` cuts
in the exact call order of the per-user reference path
(:func:`repro.datagen.obfuscate.permanent_obfuscate_batched_xy` /
``one_time_obfuscate_xy``).  Every transform — Rayleigh and Lambert-W
radius inversion, polar conversion, nearest-top matching, the posterior
weight matrix and its inverse-CDF selection — runs batched over the whole
shard.  Results are bit-identical to the reference, per user, and
therefore invariant to worker chunking.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.core.posterior import posterior_weights_array
from repro.core.sampling import (
    planar_laplace_radius_from_uniform,
    polar_to_cartesian,
    rayleigh_radius_from_uniform,
)
from repro.kernels.gaussian import split_user_blocks, user_uniforms

__all__ = [
    "match_tops_population",
    "one_time_laplace_population",
    "permanent_obfuscate_population",
]

_TWO_PI = 2.0 * math.pi


def match_tops_population(
    xs: np.ndarray,
    ys: np.ndarray,
    offsets: np.ndarray,
    top_xs: np.ndarray,
    top_ys: np.ndarray,
    top_offsets: np.ndarray,
    match_radius: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest-top matching for every check-in of a shard, in one pass.

    Returns ``(matched, nearest)`` over all check-ins: ``matched[c]`` is
    True when check-in ``c`` lies within ``match_radius`` of its user's
    nearest top location, whose per-user index is ``nearest[c]``.  Same
    distances (``np.hypot``) and same first-occurrence argmin tie-break
    as the per-user ``(m, k)`` matrix path, ragged-batched across users.
    """
    if match_radius <= 0:
        raise ValueError("match radius must be positive")
    offsets = np.asarray(offsets, dtype=np.int64)
    top_offsets = np.asarray(top_offsets, dtype=np.int64)
    n = len(xs)
    matched = np.zeros(n, dtype=bool)
    nearest = np.zeros(n, dtype=np.int64)
    if n == 0:
        return matched, nearest

    m_u = np.diff(offsets)
    k_u = np.diff(top_offsets)
    user_of_point = np.repeat(np.arange(len(m_u), dtype=np.int64), m_u)
    pairs_per_checkin = k_u[user_of_point]
    total_pairs = int(pairs_per_checkin.sum())
    if total_pairs == 0:
        return matched, nearest
    pair_start = np.concatenate([[0], np.cumsum(pairs_per_checkin)])

    # One ragged (check-in x user-top) distance pass.
    ci = np.repeat(np.arange(n, dtype=np.int64), pairs_per_checkin)
    tj = np.arange(total_pairs, dtype=np.int64) - pair_start[:-1][ci]
    top_row = top_offsets[:-1][user_of_point][ci] + tj
    d = np.hypot(xs[ci] - top_xs[top_row], ys[ci] - top_ys[top_row])

    active = np.flatnonzero(pairs_per_checkin > 0)
    starts = pair_start[:-1][active]
    dmin = np.minimum.reduceat(d, starts)
    # First-occurrence argmin: smallest local index attaining the minimum
    # (exactly np.argmin's tie-break).
    dmin_rep = np.repeat(dmin, pairs_per_checkin[active])
    sentinel = int(k_u.max()) + 1
    nearest[active] = np.minimum.reduceat(
        np.where(d == dmin_rep, tj, sentinel), starts
    )
    matched[active] = dmin <= match_radius
    return matched, nearest


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


def permanent_obfuscate_population(
    xs: np.ndarray,
    ys: np.ndarray,
    offsets: np.ndarray,
    top_xs: np.ndarray,
    top_ys: np.ndarray,
    top_offsets: np.ndarray,
    *,
    sigma: float,
    n: int,
    posterior_sigma: float,
    nomadic_sigma: float,
    seed: int,
    match_radius: float = 100.0,
    user_ids: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The Edge-PrivLocAd reporting stream for a whole shard at once.

    ``(xs, ys, offsets)`` are the check-in CSR columns and
    ``(top_xs, top_ys, top_offsets)`` the matching eta-frequent bundle
    (e.g. from :func:`repro.kernels.frequent.population_eta_tops`).
    ``sigma``/``n``/``posterior_sigma`` parameterise the pinned n-fold
    Gaussian and its selection posterior, ``nomadic_sigma`` the
    single-output Gaussian for unmatched check-ins.

    Per user, the output is bit-identical to
    ``permanent_obfuscate_batched_xy`` with per-user mechanisms on that
    user's spawned rng.  The matching stage is RNG-free, so every user's
    draw sizes are known up front; the draw loop consumes each user's
    stream in reference order (pin, select, nomadic) and all transforms
    are batched: one candidate tensor, one posterior-weights matrix and
    one inverse-CDF selection per shard.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    offsets = np.asarray(offsets, dtype=np.int64)
    top_offsets = np.asarray(top_offsets, dtype=np.int64)
    n_users = len(offsets) - 1
    if user_ids is None:
        user_ids = np.arange(n_users, dtype=np.int64)
    if len(user_ids) != n_users:
        raise ValueError(
            f"user_ids has {len(user_ids)} entries for {n_users} users"
        )

    matched, nearest = match_tops_population(
        xs, ys, offsets, top_xs, top_ys, top_offsets, match_radius
    )
    m_u = np.diff(offsets)
    k_u = np.diff(top_offsets)
    user_of_point = np.repeat(np.arange(n_users, dtype=np.int64), m_u)
    n_matched_u = np.bincount(user_of_point[matched], minlength=n_users)
    n_nomadic_u = m_u - n_matched_u

    # One buffer per user in reference call order (pin theta, pin s,
    # select, nomadic theta, nomadic s); sizes are fully determined by
    # the (RNG-free) matching above.  ``uniform(0, high)`` is
    # ``high * next_double`` (see pin_candidates_population), so theta
    # scale factors are applied batched below.
    pin_sizes = k_u * n
    theta_pin, s_pin, u_sel, theta_nom, s_nom = split_user_blocks(
        user_uniforms(
            seed, user_ids, 2 * pin_sizes + n_matched_u + 2 * n_nomadic_u
        ),
        (pin_sizes, pin_sizes, n_matched_u, n_nomadic_u, n_nomadic_u),
    )
    theta_pin *= _TWO_PI
    theta_nom *= _TWO_PI

    # Pin: one (total_tops, n, 2) candidate tensor for the shard.
    pin_noise = polar_to_cartesian(
        rayleigh_radius_from_uniform(s_pin, sigma), theta_pin
    )
    tops = np.column_stack([top_xs, top_ys])
    candidates = tops[:, None, :] + pin_noise.reshape(-1, n, 2)

    reported = np.empty((len(xs), 2), dtype=float)

    # Select: one posterior-weights matrix + inverse-CDF pass per shard.
    if matched.any():
        top_row = top_offsets[:-1][user_of_point[matched]] + nearest[matched]
        rows = candidates[top_row]
        weights = posterior_weights_array(rows, posterior_sigma)
        cdf = np.cumsum(weights, axis=1)
        idx = np.minimum((u_sel[:, None] > cdf).sum(axis=1), n - 1)
        reported[matched] = rows[np.arange(len(rows)), idx]

    # Nomadic: single-output Gaussian over the remainder.
    nomadic = ~matched
    if nomadic.any():
        nom_noise = polar_to_cartesian(
            rayleigh_radius_from_uniform(s_nom, nomadic_sigma), theta_nom
        )
        reported[nomadic] = (
            np.column_stack([xs, ys])[nomadic] + nom_noise
        )
    return reported
