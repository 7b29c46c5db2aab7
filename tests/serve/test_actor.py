"""Per-user actors: determinism, path selection, ledger accounting."""

import numpy as np

from repro.edge.clock import VirtualTimeSource
from repro.serve.actor import EdgeConfig, UserActor
from repro.serve.events import ServeWorkloadConfig, build_schedule


def make_actor(user_index=0, seed=3, **kwargs):
    return UserActor(
        user_id=f"user-{user_index:06d}",
        user_index=user_index,
        seed=seed,
        config=EdgeConfig(),
        time_source=VirtualTimeSource(),
        **kwargs,
    )


def user_events(schedule, user_index):
    return [
        schedule.event(seq)
        for seq in range(len(schedule))
        if schedule.event(seq).user_index == user_index
    ]


class TestDeterminism:
    def test_same_seed_same_outputs(self):
        schedule = build_schedule(ServeWorkloadConfig(n_users=3, n_events=90, seed=3))
        events = user_events(schedule, 1)
        out_a = [make_actor(1).handle_checkin(e.timestamp, e.x, e.y) for e in events]
        out_b = [make_actor(1).handle_checkin(e.timestamp, e.x, e.y) for e in events]
        assert out_a == out_b

    def test_different_users_draw_independent_streams(self):
        a = make_actor(0)
        b = make_actor(1)
        pa, _ = a.handle_checkin(0.0, 100.0, 100.0)
        pb, _ = b.handle_checkin(0.0, 100.0, 100.0)
        assert (pa.x, pa.y) != (pb.x, pb.y)


class TestServePaths:
    def test_nomadic_path_charges_the_accountant(self):
        actor = make_actor()
        _, path = actor.handle_checkin(0.0, 0.0, 0.0)
        assert path == "nomadic"
        assert actor.accountant.observations == 1

    def test_top_path_after_window_rollover(self):
        # Feed one location every day past the 90-day profile window: the
        # spot becomes a top location, gets pinned, and later check-ins
        # are served from the obfuscation table.
        actor = make_actor()
        day = 86_400.0
        paths = [
            actor.handle_checkin(i * day, 500.0, 500.0)[1] for i in range(100)
        ]
        assert paths[-1] == "top"
        assert actor.ledger.spends >= 1

    def test_reported_location_is_never_the_raw_point(self):
        actor = make_actor()
        reported, _ = actor.handle_checkin(0.0, 1234.5, 678.9)
        assert (reported.x, reported.y) != (1234.5, 678.9)

    def test_charged_since_reports_new_entries(self):
        actor = make_actor()
        day = 86_400.0
        before = len(actor.ledger.entries)
        for i in range(100):
            actor.handle_checkin(i * day, 500.0, 500.0)
        charged = actor.charged_since(before)
        assert len(charged) == actor.ledger.spends
        budget = actor.config.budget
        assert all(c == (budget.epsilon, budget.delta) for c in charged)

    def test_finalize_flushes_trailing_window(self):
        actor = make_actor()
        day = 86_400.0
        # Not enough elapsed time to roll the 90-day window even once.
        for i in range(20):
            actor.handle_checkin(i * day, 500.0, 500.0)
        assert actor.ledger.spends == 0
        actor.finalize()
        assert actor.ledger.spends >= 1


class TestLedgerCap:
    def test_cap_stops_pinning_not_serving(self):
        actor = make_actor(ledger_max_epsilon=0.5)  # below one pin's cost
        day = 86_400.0
        paths = [
            actor.handle_checkin(i * day, 500.0, 500.0)[1] for i in range(100)
        ]
        assert actor.ledger.spends == 0  # the pin was refused ...
        assert all(p == "nomadic" for p in paths)  # ... service continued
