"""Unit tests for the honest-but-curious provider's view: the egress record."""

import numpy as np

from repro.attack.deobfuscation import DeobfuscationAttack
from repro.geo.point import Point
from repro.serve.egress import ServeResponse, attack_egress
from repro.serve.events import ServeWorkloadConfig, build_schedule
from repro.serve.shard import ShardSpec, ShardState


def egress_log(user_index, center, count, rng, scale=20.0, start_seq=0):
    x, y = center
    return [
        ServeResponse(
            seq=start_seq + i,
            user_index=user_index,
            path="nomadic",
            reported_x=x + rng.normal(0, scale),
            reported_y=y + rng.normal(0, scale),
            ads=(),
            received=0,
        )
        for i in range(count)
    ]


class TestProvider:
    def test_attack_device_recovers_cluster_center(self, rng):
        responses = egress_log(0, (1_000.0, -2_000.0), 200, rng)
        attack = DeobfuscationAttack(theta=50.0, r_alpha=100.0)
        inferred = attack_egress(responses, attack, n=1)
        assert list(inferred) == [0]
        assert len(inferred[0]) == 1
        assert inferred[0][0].distance_to(Point(1_000, -2_000)) < 20.0

    def test_attack_unknown_device(self):
        attack = DeobfuscationAttack(theta=50.0, r_alpha=100.0)
        assert attack_egress([], attack) == {}

    def test_attack_all_covers_every_device(self, rng):
        responses = egress_log(0, (0.0, 0.0), 50, rng) + egress_log(
            1, (5_000.0, 0.0), 50, rng, start_seq=50
        )
        attack = DeobfuscationAttack(theta=50.0, r_alpha=100.0)
        assert set(attack_egress(responses, attack, n=1)) == {0, 1}

    def test_default_network_created(self):
        """Each edge device talks to an ad network holding the seeded inventory."""
        schedule = build_schedule(ServeWorkloadConfig(n_users=2, n_events=4))
        shard = ShardState(ShardSpec(shard_id=0, n_shards=1, seed=0, n_campaigns=7), schedule)
        assert shard.network.campaign_count == 7

    def test_attack_sees_reports_in_egress_order(self):
        responses = [
            ServeResponse(seq=i, user_index=0, path="top", reported_x=float(i),
                          reported_y=0.0, ads=(), received=0)
            for i in range(3)
        ]

        class Recorder:
            def estimate_xy(self, coords, n):
                self.coords = coords
                return []

        recorder = Recorder()
        attack_egress(responses, recorder)
        assert np.array_equal(recorder.coords, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
