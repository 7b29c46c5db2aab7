"""Property tests: population kernels are bit-identical to per-user paths.

The kernels in :mod:`repro.kernels` process an entire CSR shard per array
pass, but each user's slice of the result must equal the per-user
reference path exactly — same clusters, same profile floats, same
eta-frequent prefixes, and byte-equal noise (every user draws from its
own ``SeedSequence.spawn`` stream in the reference call order).  These
tests pin that contract over randomly seeded populations, plus the chunk
invariance that makes the kernels safe under ``parallel_map``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gaussian import NFoldGaussianMechanism
from repro.core.laplace import PlanarLaplaceMechanism
from repro.core.params import GeoIndBudget
from repro.data.columns import PopulationColumns, chunk_csr
from repro.datagen.obfuscate import one_time_obfuscate_xy
from repro.datagen.population import PopulationConfig, generate_population
from repro.edge.location_management import DEFAULT_ETA
from repro.geo.index import component_labels
from repro.kernels import (
    one_time_laplace_population,
    pin_candidates_population,
    population_component_labels,
    population_eta_counts,
    population_eta_tops,
    population_profiles,
    user_rng,
)
from repro.profiles.frequent import eta_frequent_count, eta_frequent_xy
from repro.profiles.profile import DEFAULT_CONNECT_RADIUS_M, LocationProfile

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _checkins(seed, n_users=6):
    users = generate_population(PopulationConfig(n_users=n_users, seed=seed))
    return PopulationColumns.from_users(users).checkins


def _budget(n=10):
    return GeoIndBudget(r=500.0, epsilon=1.0, delta=0.01, n=n)


class TestClusterKernel:
    @given(seeds)
    @settings(max_examples=6, deadline=None)
    def test_labels_match_per_user_component_labels(self, seed):
        """Each user's slice equals standalone clustering of their trace."""
        ck = _checkins(seed)
        for radius in (20.0, DEFAULT_CONNECT_RADIUS_M, 150.0):
            labels = population_component_labels(
                ck.xs, ck.ys, ck.offsets, radius
            )
            for i in range(ck.n_users):
                sl = slice(int(ck.offsets[i]), int(ck.offsets[i + 1]))
                np.testing.assert_array_equal(
                    labels[sl], component_labels(ck.user_coords(i), radius)
                )


class TestProfileKernel:
    @given(seeds)
    @settings(max_examples=6, deadline=None)
    def test_profiles_match_per_user_from_xy(self, seed):
        """Centroids, counts, and profile order equal the object path."""
        ck = _checkins(seed)
        profiles = population_profiles(ck.xs, ck.ys, ck.offsets)
        assert profiles.n_users == ck.n_users
        for i in range(ck.n_users):
            sl = slice(int(ck.offsets[i]), int(ck.offsets[i + 1]))
            ref = LocationProfile.from_xy(ck.xs[sl], ck.ys[sl])
            psl = profiles.user_slice(i)
            np.testing.assert_array_equal(profiles.xs[psl], ref.xs)
            np.testing.assert_array_equal(profiles.ys[psl], ref.ys)
            np.testing.assert_array_equal(profiles.counts[psl], ref.counts)


class TestEtaKernel:
    @given(seeds)
    @settings(max_examples=6, deadline=None)
    def test_eta_counts_and_tops_match_per_user(self, seed):
        """Prefix lengths and gathered tops equal Algorithm 2 per user."""
        ck = _checkins(seed)
        profiles = population_profiles(ck.xs, ck.ys, ck.offsets)
        for eta in (DEFAULT_ETA, 0.5, 3.0):
            counts = population_eta_counts(profiles, eta)
            top_xs, top_ys, top_offsets = population_eta_tops(profiles, eta)
            for i in range(ck.n_users):
                sl = slice(int(ck.offsets[i]), int(ck.offsets[i + 1]))
                ref_profile = LocationProfile.from_xy(ck.xs[sl], ck.ys[sl])
                assert counts[i] == eta_frequent_count(ref_profile, eta)
                ref_xs, ref_ys = eta_frequent_xy(ref_profile, eta)
                tsl = slice(int(top_offsets[i]), int(top_offsets[i + 1]))
                np.testing.assert_array_equal(top_xs[tsl], ref_xs)
                np.testing.assert_array_equal(top_ys[tsl], ref_ys)


class TestPinKernel:
    @given(seeds)
    @settings(max_examples=6, deadline=None)
    def test_pinning_matches_per_user_obfuscate_batch(self, seed):
        """Candidate tensors equal per-user n-fold batches, byte for byte."""
        ck = _checkins(seed)
        profiles = population_profiles(ck.xs, ck.ys, ck.offsets)
        top_xs, top_ys, top_offsets = population_eta_tops(
            profiles, DEFAULT_ETA
        )
        budget = _budget()
        sigma = NFoldGaussianMechanism(budget).sigma
        candidates = pin_candidates_population(
            top_xs, top_ys, top_offsets, sigma, budget.n, seed
        )
        for i in range(ck.n_users):
            tsl = slice(int(top_offsets[i]), int(top_offsets[i + 1]))
            if tsl.start == tsl.stop:
                continue
            mechanism = NFoldGaussianMechanism(budget, rng=user_rng(seed, i))
            ref = mechanism.obfuscate_batch(
                np.column_stack((top_xs[tsl], top_ys[tsl]))
            )
            np.testing.assert_array_equal(candidates[tsl], ref)


class TestObfuscationKernels:
    @given(seeds)
    @settings(max_examples=4, deadline=None)
    def test_one_time_matches_per_user_xy_path(self, seed):
        """One-time Laplace output equals per-user spawned-rng mechanisms."""
        ck = _checkins(seed)
        level = float(np.log(2))
        epsilon = PlanarLaplaceMechanism.from_level(level, 200.0).epsilon
        reported = one_time_laplace_population(
            ck.xs, ck.ys, ck.offsets, epsilon, seed
        )
        for i in range(ck.n_users):
            sl = slice(int(ck.offsets[i]), int(ck.offsets[i + 1]))
            mechanism = PlanarLaplaceMechanism.from_level(
                level, 200.0, rng=user_rng(seed, i)
            )
            ref = one_time_obfuscate_xy(ck.user_coords(i), mechanism)
            np.testing.assert_array_equal(reported[sl], ref)


class TestChunkInvariance:
    @given(seeds)
    @settings(max_examples=4, deadline=None)
    def test_chunked_kernels_equal_whole_shard(self, seed):
        """Any contiguous chunk with global user_ids reproduces its slice.

        This is exactly the contract ``parallel_map`` chunking relies on:
        worker boundaries cannot change a single reported byte.
        """
        ck = _checkins(seed, n_users=8)
        level = float(np.log(2))
        epsilon = PlanarLaplaceMechanism.from_level(level, 200.0).epsilon
        whole = one_time_laplace_population(
            ck.xs, ck.ys, ck.offsets, epsilon, seed
        )
        for lo, hi in ((0, 3), (3, 8), (2, 6)):
            cxs, cys, coffsets = chunk_csr(ck.xs, ck.ys, ck.offsets, lo, hi)
            chunked = one_time_laplace_population(
                cxs,
                cys,
                coffsets,
                epsilon,
                seed,
                user_ids=np.arange(lo, hi, dtype=np.int64),
            )
            sl = slice(int(ck.offsets[lo]), int(ck.offsets[hi]))
            np.testing.assert_array_equal(chunked, whole[sl])
