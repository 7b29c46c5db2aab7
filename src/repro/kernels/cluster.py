"""Population-level connectivity clustering over CSR check-in shards.

:func:`repro.geo.index.component_labels` clusters ONE user's check-ins
with a cell-level union-find whose python loop runs once per adjacent
cell pair.  At population scale (a 100k-user shard holds millions of
check-ins) that per-user python work dominates the profiling stage, so
this kernel clusters **every user of a shard in one array pass**:

* cells are keyed exactly like the per-user index (side
  ``radius / sqrt(2)``, ``floor`` bucketing) but under a composite
  ``user * stride + kx * width + ky`` code, so one sorted code array
  holds every user's grid and users can never alias each other's cells;
* candidate cell pairs come from the same 12 half-plane neighbour
  offsets.  Codes are unique and sorted, so the neighbours of a cell in
  the next grid column (or the one after) sit in a window of five
  positions that one ``searchsorted`` per column offset locates, over
  all users at once; same-column neighbours are the next two positions;
* pairs are resolved with per-cell bounding boxes first — box distances
  are monotone bounds of the exact pair predicate, so "surely
  connected" / "surely disconnected" decisions agree with the
  point-level test in exact float arithmetic; the ambiguous remainder
  goes through staged capped witness probes (the cheapest probe over
  every ambiguous pair, then dropping pairs whose cells the components
  so far already connect), and only the tiny leftover pays the full
  batched cross-pair distance test;
* cell connectivity goes through
  :func:`scipy.sparse.csgraph.connected_components` (C speed) instead
  of a python union-find: one pass over the box-proven and first-probe
  edges, then merges over only the components that a later stage's
  hits touch;
* the result is the PARTITION (:func:`population_components`): a
  global component id per check-in, numbered in first-member order.
  Profiles need nothing more — their centroids are bincounts over these
  ids — so only :func:`population_component_labels` ranks components.

The resulting per-user labels are **bit-identical** to running
``component_labels(user_coords, radius)`` user by user: the edge set is
decided by the same predicate ``dx*dx + dy*dy <= r2`` over the same
cell adjacencies, and label ranks follow the same (size desc, first
member asc) contract.  The property suite pins this equivalence.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as _graph_components

__all__ = [
    "population_components",
    "population_component_labels",
    "PAIR_TEST_BATCH",
    "PROBE_CAPS",
]

#: Upper bound on cross-pair elements tested per vectorised batch; keeps
#: the ambiguous-pair resolution memory-bounded on dense shards.
PAIR_TEST_BATCH = 2_000_000

#: Point caps of the staged connectivity probes.  Each stage tests the
#: first ``cap`` points of each side of every still-ambiguous cell pair;
#: any hit is a real edge, and pairs whose cells land in one component
#: are dropped before the next (larger) stage.  Only the tiny remainder
#: pays the full cross-pair test.
PROBE_CAPS = (2, 8)


def _composite_cell_codes(
    xs: np.ndarray, ys: np.ndarray, user_of_point: np.ndarray, cell: float
) -> Tuple[np.ndarray, int]:
    """Collision-free int64 codes ``user * stride + kx * width + ky``.

    ``width``/``stride`` leave >= 2 cells of slack beyond the global key
    ranges, so the +-2 neighbour offsets below can neither alias a cell
    in an adjacent grid row nor reach into another user's code block —
    neighbour lookups stay strictly per-user.
    """
    kx = np.floor(xs / cell).astype(np.int64)
    ky = np.floor(ys / cell).astype(np.int64)
    kx -= kx.min()
    ky -= ky.min()
    width = int(ky.max()) + 5
    stride = (int(kx.max()) + 5) * width
    return user_of_point * stride + kx * width + ky, width


def _neighbor_offsets(cell: float, radius: float) -> list:
    """The half-plane cell offsets whose minimum gap can be <= radius.

    Identical construction to the per-user grid index: Chebyshev
    distance <= 2, each unordered pair once, corner-gap filtered.
    """
    return [
        (ox, oy)
        for ox in range(-2, 3)
        for oy in range(-2, 3)
        if (ox, oy) > (0, 0)
        and math.hypot(max(0, abs(ox) - 1), max(0, abs(oy) - 1)) * cell <= radius
    ]


def _resolve_ambiguous_pairs(
    xs: np.ndarray,
    ys: np.ndarray,
    order: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    pa: np.ndarray,
    pb: np.ndarray,
    r2: float,
) -> np.ndarray:
    """Exact cross-pair connectivity for cell pairs the boxes left open.

    For each candidate pair ``(pa[i], pb[i])`` of cell indices, tests
    whether ANY cross point pair satisfies ``dx*dx + dy*dy <= r2`` — the
    exact predicate of the per-user path.  Work is chunked so no batch
    materialises more than :data:`PAIR_TEST_BATCH` point pairs.
    """
    n_pairs = len(pa)
    connected = np.zeros(n_pairs, dtype=bool)
    if n_pairs == 0:
        return connected
    cost = sizes[pa] * sizes[pb]
    bounds = np.concatenate([[0], np.cumsum(cost)])
    batch_start = 0
    while batch_start < n_pairs:
        batch_end = batch_start
        base = bounds[batch_start]
        while (
            batch_end < n_pairs
            and (bounds[batch_end + 1] - base <= PAIR_TEST_BATCH or batch_end == batch_start)
        ):
            batch_end += 1
        sel = slice(batch_start, batch_end)
        a, b = pa[sel], pb[sel]
        na, nb = sizes[a], sizes[b]
        pair_cost = na * nb
        total = int(pair_cost.sum())
        pair_id = np.repeat(np.arange(batch_end - batch_start), pair_cost)
        t = np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(pair_cost)])[:-1], pair_cost
        )
        nb_rep = np.repeat(nb, pair_cost)
        ai = t // nb_rep
        bi = t - ai * nb_rep
        pts_a = order[np.repeat(starts[a], pair_cost) + ai]
        pts_b = order[np.repeat(starts[b], pair_cost) + bi]
        dx = xs[pts_b] - xs[pts_a]
        dy = ys[pts_b] - ys[pts_a]
        hit = dx * dx + dy * dy <= r2
        if hit.any():
            local = np.zeros(batch_end - batch_start, dtype=bool)
            local[pair_id[hit]] = True
            connected[sel] = local
        batch_start = batch_end
    return connected


def _probe_pairs(
    xs: np.ndarray,
    ys: np.ndarray,
    order: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    pa: np.ndarray,
    pb: np.ndarray,
    r2: float,
    cap: int,
) -> np.ndarray:
    """Capped any-hit witness test over the first ``cap`` points per side.

    A dense rectangular probe: cells smaller than ``cap`` repeat their
    last sampled point, which only duplicates individual pair tests and
    therefore cannot change an any-hit outcome.  A ``True`` is always a
    real edge (the exact predicate fired on a real cross pair); a
    ``False`` only means the pair stays ambiguous.
    """
    n_pairs = len(pa)
    hit = np.zeros(n_pairs, dtype=bool)
    take = np.arange(cap, dtype=np.int64)
    per_batch = max(1, PAIR_TEST_BATCH // (cap * cap))
    for lo in range(0, n_pairs, per_batch):
        a = pa[lo:lo + per_batch]
        b = pb[lo:lo + per_batch]
        ia = starts[a][:, None] + np.minimum(take, sizes[a][:, None] - 1)
        ib = starts[b][:, None] + np.minimum(take, sizes[b][:, None] - 1)
        ax, ay = xs[order[ia]], ys[order[ia]]
        bx, by = xs[order[ib]], ys[order[ib]]
        dx = ax[:, :, None] - bx[:, None, :]
        dy = ay[:, :, None] - by[:, None, :]
        hit[lo:lo + per_batch] = (dx * dx + dy * dy <= r2).any(axis=(1, 2))
    return hit


def population_components(
    xs: np.ndarray, ys: np.ndarray, offsets: np.ndarray, radius: float
) -> Tuple[np.ndarray, np.ndarray]:
    """The connectivity partition of every user of a CSR shard.

    Returns ``(point_comp, comp_user)``: a global component id per
    check-in and the owning user per component.  Component ids are
    numbered in order of each component's first check-in, so they are
    grouped by user (``comp_user`` is non-decreasing) and, within a user,
    ascend with the smallest member index — the tie order of the
    per-user ranking contract.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    xs = np.ascontiguousarray(xs, dtype=float)
    ys = np.ascontiguousarray(ys, dtype=float)
    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(xs)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    user_of_point = np.repeat(
        np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets)
    )

    # Same cell side as the per-user grid: same-cell points are within
    # radius by construction.
    cell = radius / math.sqrt(2.0)
    code, width = _composite_cell_codes(xs, ys, user_of_point, cell)

    order = np.argsort(code, kind="stable")
    sorted_code = code[order]
    is_start = np.ones(n, dtype=bool)
    is_start[1:] = sorted_code[1:] != sorted_code[:-1]
    starts = np.flatnonzero(is_start)
    unique_codes = sorted_code[starts]
    n_cells = len(unique_codes)
    sizes = np.diff(np.append(starts, n))

    # Start from one component per cell, numbered by the cell's first
    # check-in (the stable argsort puts a cell's smallest point index at
    # its start).  Merges keep the smallest label of what they join, so
    # component ids stay in first-member order with no per-point ranking.
    first_point = order[starts]
    is_first = np.zeros(n, dtype=bool)
    is_first[first_point] = True
    cell_comp = np.cumsum(is_first)[first_point] - 1

    # Per-cell point bounding boxes (segments are non-empty by
    # construction, so reduceat is well defined).
    sx, sy = xs[order], ys[order]
    box_min_x = np.minimum.reduceat(sx, starts)
    box_max_x = np.maximum.reduceat(sx, starts)
    box_min_y = np.minimum.reduceat(sy, starts)
    box_max_y = np.maximum.reduceat(sy, starts)

    pa, pb = _neighbor_pairs(unique_codes, width, _neighbor_offsets(cell, radius))

    # Box pruning.  Both bounds are monotone under float rounding, so
    # they are exact-conservative with respect to the pair predicate:
    # gap^2 > r2 proves every cross pair fails it, span^2 <= r2 proves
    # every cross pair satisfies it.
    r2 = radius * radius
    gap_x = np.maximum(
        0.0, np.maximum(box_min_x[pb] - box_max_x[pa], box_min_x[pa] - box_max_x[pb])
    )
    gap_y = np.maximum(
        0.0, np.maximum(box_min_y[pb] - box_max_y[pa], box_min_y[pa] - box_max_y[pb])
    )
    surely_apart = gap_x * gap_x + gap_y * gap_y > r2
    span_x = np.maximum(box_max_x[pb] - box_min_x[pa], box_max_x[pa] - box_min_x[pb])
    span_y = np.maximum(box_max_y[pb] - box_min_y[pa], box_max_y[pa] - box_min_y[pb])
    surely_joined = span_x * span_x + span_y * span_y <= r2

    # Staged resolution.  Only the final component PARTITION must match
    # the per-user path — edges already implied by it may be skipped.
    # The cheapest probe runs over every ambiguous pair and its hits are
    # merged together with the box-proven edges in one graph pass; each
    # later stage drops ambiguous pairs whose cells already share a
    # component and merges only its own hits, so its graph pass covers
    # just the components those hits touch.  On routine-driven
    # populations the capped probes leave the exact cross-pair test
    # almost nothing.
    ambiguous = ~(surely_apart | surely_joined)
    rem_a, rem_b = pa[ambiguous], pb[ambiguous]
    join_a, join_b = pa[surely_joined], pb[surely_joined]
    for cap in PROBE_CAPS:
        hit = _probe_pairs(xs, ys, order, starts, sizes, rem_a, rem_b, r2, cap)
        cell_comp = _merge_components(
            cell_comp,
            np.concatenate([join_a, rem_a[hit]]),
            np.concatenate([join_b, rem_b[hit]]),
        )
        join_a, join_b = join_a[:0], join_b[:0]
        rem_a, rem_b = _drop_connected(rem_a[~hit], rem_b[~hit], cell_comp)
    full = _resolve_ambiguous_pairs(xs, ys, order, starts, sizes, rem_a, rem_b, r2)
    cell_comp = _merge_components(cell_comp, rem_a[full], rem_b[full])

    comp_user = np.empty(int(cell_comp.max()) + 1, dtype=np.int64)
    comp_user[cell_comp] = user_of_point[first_point]
    point_comp = np.empty(n, dtype=np.int64)
    point_comp[order] = np.repeat(cell_comp, sizes)
    return point_comp, comp_user


def population_component_labels(
    xs: np.ndarray, ys: np.ndarray, offsets: np.ndarray, radius: float
) -> np.ndarray:
    """Per-user component labels for every check-in of a CSR shard.

    ``labels[offsets[i]:offsets[i+1]]`` equals
    ``component_labels(column_stack((xs, ys))[slice], radius)`` for each
    user ``i``, bit for bit: within each user, label ``k`` selects that
    user's ``k``-th largest component (ties by smallest member index).
    """
    point_comp, comp_user = population_components(xs, ys, offsets, radius)
    if not len(point_comp):
        return point_comp
    n_comps = len(comp_user)
    counts = np.bincount(point_comp, minlength=n_comps)
    # Stable, so equal sizes keep component-id (= first member) order.
    order = np.lexsort((-counts, comp_user))
    rank = np.empty(n_comps, dtype=np.int64)
    rank[order] = np.arange(n_comps, dtype=np.int64)
    # Components are grouped by user, so the user's first component id
    # rebases ranks to zero within each user block.
    user_base = np.searchsorted(comp_user, comp_user)
    return (rank - user_base)[point_comp]


def _neighbor_pairs(
    codes: np.ndarray, width: int, offsets: list
) -> Tuple[np.ndarray, np.ndarray]:
    """Every cell pair ``(a, b)`` with ``codes[b] - codes[a]`` an offset.

    ``codes`` are unique and sorted, and each ``ox`` row of the offsets
    is a contiguous ``oy`` range ``lo..hi`` (the corner-gap filter is
    monotone in ``|oy|``).  So the row's neighbours of a cell sit in the
    ``hi - lo + 1`` positions from the first code ``>= code + ox*width +
    lo``: one ``searchsorted`` per row finds them all, and the ``ox = 0``
    row needs none.
    """
    n_cells = len(codes)
    pair_a_parts, pair_b_parts = [], []
    for ox in sorted({ox for ox, _ in offsets}):
        oys = [oy for o, oy in offsets if o == ox]
        lo, hi = min(oys), max(oys)
        row = codes + ox * width
        if ox == 0:
            # lo >= 1 on this row and codes are unique integers, so the
            # first code >= code + lo is the next one.
            start = np.arange(1, n_cells + 1, dtype=np.int64)
        else:
            start = np.searchsorted(codes, row + lo)
        for k in range(hi - lo + 1):
            b = start + k
            oy = np.take(codes, b, mode="clip") - row
            a = np.flatnonzero((b < n_cells) & (oy >= lo) & (oy <= hi))
            pair_a_parts.append(a)
            pair_b_parts.append(b[a])
    return np.concatenate(pair_a_parts), np.concatenate(pair_b_parts)


def _merge_components(
    cell_comp: np.ndarray, edge_a: np.ndarray, edge_b: np.ndarray
) -> np.ndarray:
    """Cell component labels after joining the cells of each edge.

    ``cell_comp`` holds dense labels ``0..k-1``.  Only the components the
    edges touch enter the graph pass; each merged group keeps its
    smallest label, and labels are re-densified in order, so label order
    (first-member order) is preserved.
    """
    if not len(edge_a):
        return cell_comp
    comp_a, comp_b = cell_comp[edge_a], cell_comp[edge_b]
    n_comps = int(cell_comp.max()) + 1
    touched = np.zeros(n_comps, dtype=bool)
    touched[comp_a] = True
    touched[comp_b] = True
    ids = np.flatnonzero(touched)
    local = np.cumsum(touched) - 1
    # Float weights: repeated component pairs sum without wrapping.
    graph = coo_matrix(
        (np.ones(len(comp_a)), (local[comp_a], local[comp_b])),
        shape=(len(ids), len(ids)),
    )
    group = _graph_components(graph, directed=False)[1]
    root = np.full(int(group.max()) + 1, n_comps, dtype=np.int64)
    np.minimum.at(root, group, ids)
    merged = np.arange(n_comps, dtype=np.int64)
    merged[ids] = root[group]
    survives = merged == np.arange(n_comps)
    return (np.cumsum(survives) - 1)[merged][cell_comp]


def _drop_connected(
    pa: np.ndarray, pb: np.ndarray, cell_comp: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Keep only pairs whose cells are still in different components."""
    keep = cell_comp[pa] != cell_comp[pb]
    return pa[keep], pb[keep]
