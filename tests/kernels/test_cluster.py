"""Unit tests for the population clustering kernel's staged resolution.

The property suite pins bit-identity against the per-user path on random
populations; these tests drive the specific machinery — capped witness
probes, the exact fallback, batching boundaries, degenerate shards, the
windowed neighbour scan at the edges of the code arithmetic — through
constructed inputs where each stage's role is known.
"""

import numpy as np
import pytest

from repro.geo.index import component_labels
from repro.kernels import cluster
from repro.kernels.cluster import (
    PROBE_CAPS,
    population_component_labels,
)
from repro.kernels.profiles import population_profiles
from repro.profiles.profile import LocationProfile


def _labels_match_reference(xs, ys, offsets, radius):
    labels = population_component_labels(xs, ys, offsets, radius)
    for i in range(len(offsets) - 1):
        sl = slice(int(offsets[i]), int(offsets[i + 1]))
        np.testing.assert_array_equal(
            labels[sl],
            component_labels(np.column_stack((xs[sl], ys[sl])), radius),
        )
    return labels


class TestDegenerateShards:
    def test_empty_shard(self):
        labels = population_component_labels(
            np.empty(0), np.empty(0), np.array([0, 0, 0]), 100.0
        )
        assert labels.shape == (0,)

    def test_mixed_empty_and_singleton_users(self):
        xs = np.array([0.0, 1000.0])
        ys = np.array([0.0, 1000.0])
        offsets = np.array([0, 0, 1, 1, 2])
        labels = _labels_match_reference(xs, ys, offsets, 100.0)
        np.testing.assert_array_equal(labels, [0, 0])

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError, match="radius"):
            population_component_labels(
                np.zeros(1), np.zeros(1), np.array([0, 1]), 0.0
            )


class TestStagedResolution:
    def test_probe_resolves_near_boundary_pairs(self):
        """Two clusters of cells joined only through a boundary-distance
        pair: the boxes cannot decide, the capped probe must."""
        radius = 100.0
        # Two dense blobs ~radius apart; points spread inside each cell so
        # neither "surely joined" nor "surely apart" can fire for the
        # cross-blob cell pairs.
        rng = np.random.default_rng(7)
        left = rng.uniform(0.0, 60.0, size=(40, 2))
        right = rng.uniform(0.0, 60.0, size=(40, 2)) + [95.0, 0.0]
        coords = np.concatenate([left, right])
        xs, ys = coords[:, 0], coords[:, 1]
        offsets = np.array([0, len(coords)])
        labels = _labels_match_reference(xs, ys, offsets, radius)
        assert labels.max() == 0  # one merged component

    def test_exact_fallback_when_probes_miss(self):
        """A pair whose only witness points sit beyond every probe cap
        must fall through to the exact cross-pair test."""
        radius = 100.0
        cap = max(PROBE_CAPS)
        # Cell A: `cap` decoy points far from the boundary, then one
        # witness. Grid order within a cell follows input order, so the
        # witness is never probed. Cell B: a single far point whose box
        # spans keep the pair ambiguous.
        ax = np.concatenate([np.full(cap, 5.0), [69.0]])
        ay = np.concatenate([np.linspace(0.0, 60.0, cap), [30.0]])
        bx, by = np.array([168.0]), np.array([30.0])
        xs = np.concatenate([ax, bx])
        ys = np.concatenate([ay, by])
        offsets = np.array([0, len(xs)])
        labels = _labels_match_reference(xs, ys, offsets, radius)
        assert labels[-1] == labels[cap]  # witness joined B to A

    def test_tiny_pair_test_batch_still_exact(self, monkeypatch):
        """Batching boundaries in probe/exact stages change no labels."""
        rng = np.random.default_rng(3)
        coords = rng.uniform(0.0, 800.0, size=(120, 2))
        xs, ys = coords[:, 0], coords[:, 1]
        offsets = np.array([0, 40, 40, 120])
        baseline = population_component_labels(xs, ys, offsets, 90.0)
        monkeypatch.setattr(cluster, "PAIR_TEST_BATCH", 8)
        squeezed = _labels_match_reference(xs, ys, offsets, 90.0)
        np.testing.assert_array_equal(squeezed, baseline)

    def test_rank_order_size_desc_then_first_member(self):
        """Label k is the user's k-th largest component, ties by the
        smallest member index — the per-user contract."""
        xs = np.array([0.0, 1.0, 500.0, 1000.0, 1001.0, 1002.0])
        ys = np.zeros(6)
        offsets = np.array([0, 6])
        labels = _labels_match_reference(xs, ys, offsets, 10.0)
        # sizes: {0,1}=2, {2}=1, {3,4,5}=3 -> ranks 1, 2, 0
        np.testing.assert_array_equal(labels, [1, 1, 2, 0, 0, 0])


def _reference_pairs(codes, width, offsets):
    """The neighbour scan the windowed one replaced: one searchsorted per
    half-plane offset."""
    n_cells = len(codes)
    pairs = []
    for ox, oy in offsets:
        target = codes + (ox * width + oy)
        pos = np.minimum(np.searchsorted(codes, target), n_cells - 1)
        hits = np.flatnonzero(codes[pos] == target)
        pairs.extend(zip(hits.tolist(), pos[hits].tolist()))
    return pairs


def _check_layout(xs, ys, offsets, radius):
    """Windowed pairs, labels and profile bytes all equal their references."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    offsets = np.asarray(offsets, dtype=np.int64)
    user_of_point = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    cell = radius / np.sqrt(2.0)
    code, width = cluster._composite_cell_codes(xs, ys, user_of_point, cell)
    codes = np.unique(code)
    neighbor_offsets = cluster._neighbor_offsets(cell, radius)
    pa, pb = cluster._neighbor_pairs(codes, width, neighbor_offsets)
    windowed = list(zip(pa.tolist(), pb.tolist()))
    assert len(windowed) == len(set(windowed))
    assert set(windowed) == set(_reference_pairs(codes, width, neighbor_offsets))

    _labels_match_reference(xs, ys, offsets, radius)
    profiles = population_profiles(xs, ys, offsets, radius)
    for i in range(len(offsets) - 1):
        sl = slice(int(offsets[i]), int(offsets[i + 1]))
        ref = LocationProfile.from_xy(xs[sl], ys[sl], radius)
        psl = profiles.user_slice(i)
        # Bytes, not values: -0.0 and 0.0 compare equal.
        assert profiles.xs[psl].tobytes() == ref.xs.tobytes()
        assert profiles.ys[psl].tobytes() == ref.ys.tobytes()
        assert profiles.counts[psl].tobytes() == ref.counts.tobytes()


RADII = (20.0, 50.0, 150.0)


def _csr(users):
    """CSR columns from a list of per-user ``(n, 2)`` coordinate arrays."""
    coords = np.concatenate([np.asarray(u, dtype=float).reshape(-1, 2) for u in users])
    offsets = np.concatenate([[0], np.cumsum([len(u) for u in users])])
    return coords[:, 0], coords[:, 1], offsets


@pytest.mark.parametrize("radius", RADII)
class TestConstructedLayouts:
    """Layouts that sit on the edges of the grid and code arithmetic."""

    def test_points_on_cell_edges(self, radius):
        cell = radius / np.sqrt(2.0)
        k = np.arange(-3, 4)
        gx, gy = np.meshgrid(k * cell, k * cell)
        lattice = np.column_stack((gx.ravel(), gy.ravel()))
        sparse = lattice[::3] * 2.0
        _check_layout(*_csr([lattice, sparse, lattice[::-1]]), radius)

    def test_negative_coordinates(self, radius):
        rng = np.random.default_rng(11)
        west = rng.uniform(-3 * radius, 0.0, size=(40, 2)) - [5_000.0, 7_000.0]
        mixed = rng.uniform(-2 * radius, 2 * radius, size=(40, 2))
        _check_layout(*_csr([west, mixed, -mixed]), radius)

    def test_user_at_bottom_and_top_of_the_grid_rows(self, radius):
        # The global y range is set by this user alone, so its cells sit at
        # ky = 0 and at the top of `width`; +-2 offsets must not alias the
        # neighbouring grid column.
        span = 40 * radius
        edge_user = [[0.0, 0.0], [0.5 * radius, 0.2 * radius],
                     [radius, span], [1.5 * radius, span - 0.3 * radius],
                     [2.2 * radius, 0.1 * radius], [2.2 * radius, span]]
        middle = [[radius, span / 2], [1.6 * radius, span / 2 + radius]]
        _check_layout(*_csr([edge_user, middle, edge_user]), radius)

    def test_users_adjacent_in_code_space(self, radius):
        # User i ends at the largest (kx, ky) and user i+1 starts at the
        # smallest, so their codes are as close as two users' can be.
        far = 30 * radius
        corner_hi = [[far, far], [far - 0.4 * radius, far - 0.3 * radius]]
        corner_lo = [[0.0, 0.0], [0.3 * radius, 0.2 * radius]]
        _check_layout(
            *_csr([corner_hi, corner_lo, corner_hi, corner_lo, corner_lo]), radius
        )

    def test_duplicate_points(self, radius):
        spot = np.tile([[12.5, -7.25]], (30, 1))
        pair = np.array([[0.0, 0.0], [0.0, 0.0], [radius, 0.0], [radius, 0.0]])
        _check_layout(*_csr([spot, pair, spot, spot[:1]]), radius)

    def test_one_cell_with_over_a_hundred_points(self, radius):
        rng = np.random.default_rng(5)
        cell = radius / np.sqrt(2.0)
        dense = rng.uniform(0.05 * cell, 0.95 * cell, size=(150, 2))
        # Neighbours around the dense cell: some within reach of only a
        # few of its points, some just out of reach.
        ring = np.array([[cell + 0.5 * radius, 0.5 * cell],
                         [-0.9 * radius, 0.5 * cell],
                         [0.5 * cell, 2.0 * cell + 0.99 * radius],
                         [3 * cell, 3 * cell]])
        _check_layout(*_csr([np.concatenate([dense, ring]), ring]), radius)

    def test_signed_zero_centroid_ties_keep_first_member_order(self, radius):
        # A ring and a blob with equal sizes and the same centroid up to
        # the sign of zero: the profile sort ties them, and the per-user
        # path keeps them in first-member order.
        side = 8 * radius
        per_side = 10
        t = np.linspace(-side / 2, side / 2, per_side, endpoint=False)
        h = side / 2
        ring = np.concatenate([
            np.column_stack((t, np.full(per_side, -h))),
            np.column_stack((np.full(per_side, h), t)),
            np.column_stack((-t, np.full(per_side, h))),
            np.column_stack((np.full(per_side, -h), -t)),
        ])
        n = len(ring)
        blob = np.zeros((n, 2))
        blob[: n // 2, 0] = np.arange(n // 2) % 3 - 1.0
        blob[n // 2:, 0] = -blob[: n // 2, 0]
        blob[-1, 0] = -5e-324  # the x sum ends at -5e-324, mean -0.0

        def centroid_x(points):  # index-order sum, as the profile's bincount
            return np.bincount(np.zeros(n, dtype=np.int64), weights=points[:, 0])[0] / n

        assert np.signbit(centroid_x(blob)) and centroid_x(blob) == 0.0
        assert not np.signbit(centroid_x(ring)) and centroid_x(ring) == 0.0
        _check_layout(*_csr([np.concatenate([ring, blob]), np.concatenate([blob, ring])]), radius)
