"""Property: the drain's batched window close equals closing each window alone.

At drain every actor's trailing profile window is profiled in one
population kernel pass (:func:`flush_trailing_windows`) and then pinned
in user order.  Closing one window alone — ``LocationProfile.from_checkins``
plus ``eta_frequent_set`` over that user's buffered check-ins — is the
reference: every seat must end with bit-identical profile columns, tops,
top history, window count, ledger entries, obfuscation table and metrics
snapshot, whatever the other seats' windows look like.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge.clock import VirtualTimeSource
from repro.edge.location_management import flush_trailing_windows
from repro.geo.point import Point
from repro.obs import trace
from repro.profiles.checkin import SECONDS_PER_DAY, CheckIn
from repro.profiles.frequent import eta_frequent_set
from repro.profiles.profile import LocationProfile
from repro.serve.actor import EdgeConfig, UserActor

CONFIG = EdgeConfig()
RADIUS = CONFIG.connect_radius

anchors = st.sampled_from([0.0, 125.5, 4_000.0, -7_321.25, 31_337.0])
offsets = st.floats(min_value=-120.0, max_value=120.0, allow_nan=False)
points = st.builds(lambda ax, ay, dx, dy: (ax + dx, ay + dy), anchors, anchors, offsets, offsets)


def _at_radius(p, beyond, vertical):
    x, y = p
    if vertical:
        far = np.nextafter(y + RADIUS, np.inf) if beyond else y + RADIUS
        return [(x, y), (x, float(far))]
    far = np.nextafter(x + RADIUS, np.inf) if beyond else x + RADIUS
    return [(x, y), (float(far), y)]


blocks = st.one_of(
    st.just([]),
    points.map(lambda p: [p]),
    st.builds(lambda p, k: [p] * k, points, st.integers(min_value=2, max_value=5)),
    st.builds(_at_radius, points, st.booleans(), st.booleans()),
    st.lists(points, min_size=0, max_size=12),
)
windows = st.lists(blocks, min_size=1, max_size=3).map(lambda bs: [p for b in bs for p in b])


def _actors(windows):
    """One actor per seat, every window fed in (no rollover), one clock."""
    clock = VirtualTimeSource()
    actors = []
    for i, window in enumerate(windows):
        actor = UserActor(f"user-{i:06d}", i, seed=11, config=CONFIG, time_source=clock)
        for j, (x, y) in enumerate(window):
            actor.management.record(CheckIn(j * SECONDS_PER_DAY / 20, Point(x, y)))
        actors.append(actor)
    return actors


def _drain_batched(actors):
    tops = flush_trailing_windows([actor.management for actor in actors])
    snapshots = []
    for actor, fresh in zip(actors, tops):
        with trace.collect() as obs:
            actor.pin_tops(fresh)
        snapshots.append(obs.metrics)
    return snapshots


def _drain_alone(actors):
    snapshots = []
    for actor in actors:
        with trace.collect() as obs:
            pending = actor.management._builder.take_pending()
            if pending:
                profile = LocationProfile.from_checkins(pending, RADIUS)
                actor.pin_tops(
                    actor.management.close_window(
                        profile, eta_frequent_set(profile, CONFIG.eta)
                    )
                )
        snapshots.append(obs.metrics)
    return snapshots


def _bits(points):
    return np.array([(p.x, p.y) for p in points], dtype=float).tobytes()


@given(seat_windows=st.lists(windows, min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_batched_drain_equals_closing_each_window_alone(seat_windows):
    batched, alone = _actors(seat_windows), _actors(seat_windows)
    snaps_batched = _drain_batched(batched)
    snaps_alone = _drain_alone(alone)
    for a, b, snap_a, snap_b in zip(batched, alone, snaps_batched, snaps_alone):
        ma, mb = a.management, b.management
        if mb.profile is None:
            assert ma.profile is None
        else:
            for column in ("xs", "ys", "counts"):
                assert (
                    getattr(ma.profile, column).tobytes()
                    == getattr(mb.profile, column).tobytes()
                )
        assert _bits(ma.top_locations) == _bits(mb.top_locations)
        assert [_bits(t) for t in ma.top_history] == [_bits(t) for t in mb.top_history]
        assert ma.windows_closed == mb.windows_closed
        assert a.ledger.to_state() == b.ledger.to_state()
        assert a.obfuscation.snapshot() == b.obfuscation.snapshot()
        assert snap_a == snap_b
        assert ma._builder.pending == mb._builder.pending == 0
