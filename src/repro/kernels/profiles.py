"""Population-level location profiling: every user in one aggregation pass.

Replaces ``profiles_from_offsets``'s per-user ``LocationProfile.from_xy``
loop for bulk consumers: the component partition comes from the
population clustering kernel (global ids in first-member order, no
per-user ranking), centroids from ONE weighted ``bincount`` per axis over
those ids, and the per-user (frequency desc, x, y) profile order from
integer sort keys: dense ranks of the centroid columns and one stable
sort keyed by user first.

Bit-identity with the per-user path holds because ``bincount`` accumulates
in index order (each component's addends arrive in the same order either
way), and the profile order equals each user's standalone stable
``lexsort``: the keys compare exactly as the floats do (``-0.0 == 0.0``),
and full-key ties keep first-member order both ways — the per-user input
is ranked by (size desc, first member asc), and equal sizes leave first
member as the only order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.cluster import population_components
from repro.profiles.profile import DEFAULT_CONNECT_RADIUS_M

__all__ = ["ProfileColumns", "population_profiles"]


@dataclass(frozen=True)
class ProfileColumns:
    """CSR columns of every user's location profile, in profile order.

    ``offsets[i]:offsets[i+1]`` slices user ``i``'s clustered locations,
    sorted by decreasing visit count (ties by x then y) — exactly the
    order :class:`repro.profiles.profile.LocationProfile` exposes.
    """

    xs: np.ndarray
    ys: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray

    @property
    def n_users(self) -> int:
        """Number of users the profile columns cover."""
        return len(self.offsets) - 1

    def user_slice(self, i: int) -> slice:
        """The slice of user ``i``'s profile rows in the CSR columns."""
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))


def population_profiles(
    xs: np.ndarray,
    ys: np.ndarray,
    offsets: np.ndarray,
    connect_radius: float = DEFAULT_CONNECT_RADIUS_M,
) -> ProfileColumns:
    """Profile an entire CSR shard in one pass.

    For each user ``i`` the returned columns equal
    ``LocationProfile.from_xy(xs[sl], ys[sl], connect_radius)``'s
    ``xs``/``ys``/``counts`` bit for bit.
    """
    xs = np.ascontiguousarray(xs, dtype=float)
    ys = np.ascontiguousarray(ys, dtype=float)
    offsets = np.asarray(offsets, dtype=np.int64)
    n_users = len(offsets) - 1
    n = len(xs)
    if n == 0:
        empty = np.empty(0, dtype=float)
        return ProfileColumns(
            empty, empty.copy(), np.empty(0, dtype=np.int64),
            np.zeros(n_users + 1, dtype=np.int64),
        )

    point_comp, comp_user = population_components(xs, ys, offsets, connect_radius)
    n_comps = len(comp_user)
    counts = np.bincount(point_comp, minlength=n_comps)
    cx = np.bincount(point_comp, weights=xs, minlength=n_comps) / counts
    cy = np.bincount(point_comp, weights=ys, minlength=n_comps) / counts
    comp_offsets = np.concatenate(
        [[0], np.cumsum(np.bincount(comp_user, minlength=n_users))]
    )

    order = _profile_order(comp_user, comp_offsets, counts, cx, cy)
    return ProfileColumns(
        cx[order], cy[order], counts[order].astype(np.int64), comp_offsets
    )


def _dense_rank(values: np.ndarray) -> np.ndarray:
    """Rank of each value among the distinct values (equal values tie).

    Ties are decided by ``==``, so ``-0.0`` and ``0.0`` share a rank —
    the same equality every float sort key uses.  Any sort order gives
    the same ranks, so the fast unstable sort is used.
    """
    order = np.argsort(values)
    ranked = values[order]
    rank = np.empty(len(values), dtype=np.int64)
    rank[order[0]] = 0
    rank[order[1:]] = np.cumsum(ranked[1:] != ranked[:-1])
    return rank


def _profile_order(
    comp_user: np.ndarray,
    comp_offsets: np.ndarray,
    counts: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
) -> np.ndarray:
    """Per-user (count desc, x, y) order, full-key ties by component id.

    Equals ``np.lexsort((cy, cx, -counts, comp_user))`` (stable, so ties
    keep component-id order), but a stable sort over random float keys
    is the slow part of that: here the float keys become dense ranks
    from unstable sorts and one stable sort runs over a single integer
    key that is already grouped by user.
    """
    rank_x, rank_y = _dense_rank(cx), _dense_rank(cy)
    rank_xy = _dense_rank(rank_x * (int(rank_y.max()) + 1) + rank_y)
    # (user asc, count desc) as one integer: user u's block spans its
    # largest count + 1 values, so the key stays below n_points + n_users.
    n_comps_u = np.diff(comp_offsets)
    top = np.zeros(len(n_comps_u), dtype=np.int64)
    has = n_comps_u > 0
    top[has] = np.maximum.reduceat(counts, comp_offsets[:-1][has])
    block = np.cumsum(top + 1) - (top + 1)
    group = block[comp_user] + top[comp_user] - counts
    return np.argsort(group * (int(rank_xy.max()) + 1) + rank_xy, kind="stable")
