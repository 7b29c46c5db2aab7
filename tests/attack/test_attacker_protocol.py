"""The stable ``Attacker`` protocol.

Every longitudinal attacker — Algorithm 1, the k-means baseline, the
temporal refinement, and the MAP estimator — satisfies the
``repro.core.Attacker`` protocol: an ``observe``/``estimate`` evidence
pair plus the ``estimate_xy`` batch fast path.  The pre-protocol
duck-typed spellings (``infer_top1``, ``infer_top_locations`` on
k-means, positional ``MAPAttack.estimate``) served their one release
and are gone; these tests pin their absence.
"""

import math

import numpy as np
import pytest

from repro.attack.deobfuscation import DeobfuscationAttack
from repro.attack.estimator import MAPAttack
from repro.attack.kmeans import KMeansAttack
from repro.attack.temporal import TemporalAttack
from repro.core import Attacker, AttackerBase
from repro.core.laplace import PlanarLaplaceMechanism
from repro.core.mechanism import default_rng
from repro.geo.point import Point


def _alg1():
    mechanism = PlanarLaplaceMechanism.from_level(
        math.log(2), 200.0, rng=default_rng(1)
    )
    return DeobfuscationAttack.against(mechanism)


def _coords(rng, center=(100.0, 200.0), n=400, scale=30.0):
    return rng.normal(center, scale, size=(n, 2))


class TestProtocolConformance:
    def test_all_attackers_satisfy_protocol(self, rng):
        attackers = [
            _alg1(),
            KMeansAttack(k=4, rng=default_rng(2)),
            TemporalAttack(_alg1()),
            MAPAttack.gaussian(sigma=100.0),
        ]
        for attacker in attackers:
            assert isinstance(attacker, Attacker)
            assert isinstance(attacker, AttackerBase)
        assert len({a.name for a in attackers}) == len(attackers)

    def test_observe_then_estimate_matches_batch(self, rng):
        coords = _coords(rng)
        attacker = _alg1()
        attacker.observe(coords[:150])
        attacker.observe(coords[150:])
        longitudinal = attacker.estimate(1)
        batch = _alg1().estimate_xy(coords, 1)
        assert [(p.x, p.y) for p in longitudinal] == [
            (p.x, p.y) for p in batch
        ]

    def test_reset_clears_evidence(self, rng):
        attacker = KMeansAttack(k=2, rng=default_rng(3))
        attacker.observe(_coords(rng))
        assert len(attacker.observations) == 400
        attacker.reset()
        assert len(attacker.observations) == 0

    def test_observe_rejects_bad_shape(self, rng):
        attacker = KMeansAttack()
        with pytest.raises(ValueError):
            attacker.observe(np.zeros((5, 3)))

    def test_estimate_xy_validates_request(self, rng):
        with pytest.raises(ValueError):
            _alg1().estimate_xy(_coords(rng), 0)
        with pytest.raises(ValueError):
            _alg1().estimate_xy(np.zeros((4, 3)), 1)


class TestRemovedShims:
    def test_deobfuscation_infer_top1_is_gone(self):
        assert not hasattr(DeobfuscationAttack, "infer_top1")
        # The detailed API with support/trim statistics stays.
        assert hasattr(DeobfuscationAttack, "infer_top_locations")

    def test_kmeans_shims_are_gone(self):
        assert not hasattr(KMeansAttack, "infer_top_locations")
        assert not hasattr(KMeansAttack, "infer_top1")


class TestMAPAttackDispatch:
    def test_estimate_n_ranks_bound_candidates(self, rng):
        coords = _coords(rng)
        candidates = [Point(100.0, 200.0), Point(500.0, 500.0)]
        attacker = MAPAttack.gaussian(sigma=100.0).with_candidates(candidates)
        attacker.observe(coords)
        ranked = attacker.estimate(2)
        assert (ranked[0].x, ranked[0].y) == (100.0, 200.0)
        assert (ranked[1].x, ranked[1].y) == (500.0, 500.0)

    def test_estimate_xy_without_candidates_raises(self, rng):
        with pytest.raises(ValueError, match="candidate set"):
            MAPAttack.gaussian(sigma=100.0).estimate_xy(_coords(rng), 1)

    def test_legacy_positional_estimate_is_gone(self, rng):
        coords = _coords(rng)
        candidates = [Point(100.0, 200.0), Point(500.0, 500.0)]
        observations = [Point(float(x), float(y)) for x, y in coords]
        attacker = MAPAttack.gaussian(sigma=100.0)
        with pytest.raises(TypeError):
            attacker.estimate(observations, candidates)
        assert attacker.map_candidate(observations, candidates).index == 0
