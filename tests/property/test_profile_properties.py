"""Property-based tests for profiles, frequent sets, and entropy."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.point import Point
from repro.profiles.checkin import CheckIn
from repro.profiles.frequent import eta_frequent_entries, eta_frequent_set
from repro.profiles.profile import LocationProfile, ProfileEntry

freqs = st.lists(st.integers(min_value=1, max_value=1_000), min_size=1, max_size=25)


def profile_from(freq_list):
    return LocationProfile(
        [ProfileEntry(Point(float(i) * 1_000, 0.0), f) for i, f in enumerate(freq_list)]
    )


class TestEntropyProperties:
    @given(freqs)
    def test_entropy_bounds(self, fs):
        """0 <= entropy <= log(M)."""
        profile = profile_from(fs)
        h = profile.entropy()
        assert -1e-9 <= h <= math.log(len(fs)) + 1e-9

    @given(freqs)
    def test_entropy_invariant_to_scaling(self, fs):
        p1 = profile_from(fs)
        p2 = profile_from([f * 7 for f in fs])
        assert math.isclose(p1.entropy(), p2.entropy(), abs_tol=1e-9)

    @given(st.integers(min_value=2, max_value=25))
    def test_uniform_maximises_entropy(self, m):
        uniform = profile_from([10] * m)
        skewed = profile_from([10 * m - (m - 1)] + [1] * (m - 1))
        assert uniform.entropy() >= skewed.entropy()


class TestFrequentSetProperties:
    @given(freqs, st.floats(min_value=0.01, max_value=1.0, allow_nan=False))
    def test_threshold_reached_or_all_taken(self, fs, eta):
        profile = profile_from(fs)
        entries = eta_frequent_entries(profile, eta)
        total = profile.total_checkins
        mass = sum(e.frequency for e in entries)
        assert mass >= eta * total - 1e-9 or len(entries) == len(fs)

    @given(freqs, st.floats(min_value=0.01, max_value=1.0, allow_nan=False))
    def test_minimality(self, fs, eta):
        profile = profile_from(fs)
        entries = eta_frequent_entries(profile, eta)
        total = profile.total_checkins
        mass = sum(e.frequency for e in entries)
        if mass >= eta * total:
            assert mass - entries[-1].frequency < eta * total

    @given(freqs, st.floats(min_value=0.01, max_value=0.99, allow_nan=False))
    def test_monotone_in_eta(self, fs, eta):
        profile = profile_from(fs)
        small = eta_frequent_set(profile, eta)
        large = eta_frequent_set(profile, min(eta * 1.5, 1.0))
        assert len(large) >= len(small)

    @given(freqs)
    def test_takes_most_frequent_first(self, fs):
        profile = profile_from(fs)
        entries = eta_frequent_entries(profile, 0.5)
        chosen = [e.frequency for e in entries]
        assert chosen == sorted(chosen, reverse=True)
        if len(entries) < len(profile):
            leftover_max = max(
                e.frequency for e in list(profile)[len(entries):]
            )
            assert min(chosen) >= leftover_max


class TestClusteringProfileProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
                st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
            ),
            min_size=1,
            max_size=60,
        ),
        st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_frequencies_sum_to_checkins(self, raw_points, radius):
        trace = [CheckIn(float(i), Point(x, y)) for i, (x, y) in enumerate(raw_points)]
        profile = LocationProfile.from_checkins(trace, connect_radius=radius)
        assert profile.total_checkins == len(trace)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
                st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_frequencies_descending(self, raw_points):
        trace = [CheckIn(float(i), Point(x, y)) for i, (x, y) in enumerate(raw_points)]
        profile = LocationProfile.from_checkins(trace, connect_radius=100.0)
        fs = [e.frequency for e in profile]
        assert fs == sorted(fs, reverse=True)
