"""Property tests: columnar fast paths are bit-identical to the object path.

The columnar data plane (CSR populations, ``*_xy`` obfuscation, profile
column views) must not merely approximate the object pipelines it
replaced — every refactored stage consumes the mechanisms' RNG in the
same call order and produces the exact same floats.  These tests pin
that contract over randomly seeded populations.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.laplace import PlanarLaplaceMechanism
from repro.core.mechanism import default_rng
from repro.data.columns import PopulationColumns
from repro.datagen.obfuscate import one_time_obfuscate, one_time_obfuscate_xy
from repro.datagen.population import PopulationConfig, generate_population
from repro.edge.location_management import DEFAULT_ETA
from repro.profiles.checkin import checkins_to_array
from repro.profiles.frequent import (
    eta_frequent_count,
    eta_frequent_set,
    eta_frequent_xy,
)
from repro.profiles.profile import LocationProfile

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _population(seed):
    return generate_population(PopulationConfig(n_users=4, seed=seed))


class TestColumnarPopulation:
    @given(seeds)
    @settings(max_examples=8, deadline=None)
    def test_columns_match_object_path(self, seed):
        """CSR slices carry exactly the object path's coordinates and tops."""
        users = _population(seed)
        pop = PopulationColumns.from_users(users)
        for i, user in enumerate(users):
            np.testing.assert_array_equal(
                pop.checkins.user_coords(i), checkins_to_array(user.trace)
            )
            assert pop.user_true_tops(i) == list(user.true_tops)


class TestProfileEquivalence:
    @given(seeds)
    @settings(max_examples=8, deadline=None)
    def test_eta_frequent_xy_matches_object_path(self, seed):
        """Column views of the eta-frequent set equal the entry objects."""
        users = _population(seed)
        pop = PopulationColumns.from_users(users)
        for i in range(pop.n_users):
            profile = LocationProfile.from_coords(pop.checkins.user_coords(i))
            tops = eta_frequent_set(profile, DEFAULT_ETA)
            xs, ys = eta_frequent_xy(profile, DEFAULT_ETA)
            assert len(xs) == len(tops) == eta_frequent_count(profile, DEFAULT_ETA)
            for p, x, y in zip(tops, xs, ys):
                assert p.x == x
                assert p.y == y


class TestObfuscationEquivalence:
    @given(seeds)
    @settings(max_examples=6, deadline=None)
    def test_one_time_xy_matches_object_path(self, seed):
        """Same seed, same noise: the xy path equals the CheckIn path."""
        users = _population(seed)
        trace = users[0].trace
        mech_obj = PlanarLaplaceMechanism.from_level(
            np.log(2), 200.0, rng=default_rng(seed)
        )
        mech_xy = PlanarLaplaceMechanism.from_level(
            np.log(2), 200.0, rng=default_rng(seed)
        )
        via_objects = one_time_obfuscate(trace, mech_obj)
        via_xy = one_time_obfuscate_xy(checkins_to_array(trace), mech_xy)
        assert len(via_objects) == len(via_xy)
        for c, (x, y) in zip(via_objects, via_xy):
            assert c.point.x == x
            assert c.point.y == y
