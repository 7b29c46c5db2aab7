"""Failure-injection tests: the system's safety properties under faults.

Each scenario injects a realistic operational failure and checks the
system either keeps its privacy guarantee or fails safe:

* edge restart with persisted table → the attack stays thwarted;
* edge restart WITHOUT persistence (state loss) → fresh randomness leaks,
  demonstrated as an attack-error collapse (this is why the table must be
  durable — the "failure" here is the broken deployment, not the test);
* ledger exhaustion mid-stream → new tops degrade to the nomadic path,
  never to plaintext;
* malformed inputs → loud errors, not silent corruption.
"""

import numpy as np
import pytest

from repro.attack.deobfuscation import DeobfuscationAttack
from repro.core.gaussian import GaussianMechanism, NFoldGaussianMechanism
from repro.core.ledger import PrivacyLedger
from repro.core.mechanism import default_rng
from repro.core.params import GeoIndBudget
from repro.core.posterior import PosteriorSelector
from repro.edge.obfuscation import ObfuscationModule
from repro.geo.point import Point
from repro.persist import table_from_json, table_to_json
from repro.profiles.checkin import CheckIn

BUDGET = GeoIndBudget(r=500.0, epsilon=1.0, delta=0.01, n=10)
HOME = Point(0.0, 0.0)


def serve_reports(module, selector, count):
    """Simulate `count` top-path reports from the pinned candidates."""
    candidates = module.candidates_for(HOME)
    return [selector.select(candidates) for _ in range(count)]


class TestRestartWithPersistence:
    def test_attack_stays_thwarted_across_restart(self):
        """Across restarts the attacker sees only the pinned points.

        The attack error is the distance of the best-supported pinned
        candidate from the truth — a random variable of the original
        draw — so the check is on the median over independent users
        (a single candidate occasionally lands close by chance).
        """
        errors = []
        for seed in range(8):
            rng = default_rng(seed)
            mechanism = NFoldGaussianMechanism(BUDGET, rng=rng)
            selector = PosteriorSelector(mechanism.posterior_sigma, rng=rng)

            module = ObfuscationModule(mechanism)
            module.ensure_obfuscated([HOME])
            reports = serve_reports(module, selector, 300)

            # --- restart: rebuild the module from the persisted table ---
            snapshot = table_to_json(module.table)
            module2 = ObfuscationModule(mechanism)
            module2.table = table_from_json(snapshot)
            reports += serve_reports(module2, selector, 300)

            # 600 observations, all drawn from the SAME 10 pinned points.
            assert len({(p.x, p.y) for p in reports}) <= 10
            attack = DeobfuscationAttack.against(mechanism)
            coords = np.array([(p.x, p.y) for p in reports])
            (guess,) = attack.estimate_xy(coords, 1)
            errors.append(guess.distance_to(HOME))
        assert np.median(errors) > 500.0

    def test_state_loss_leaks_fresh_randomness(self):
        """The negative control: losing the table re-randomises.

        Two independently drawn candidate sets give the attacker 20 points
        whose joint mean concentrates faster — across many simulated
        restarts the location would be fully recovered.  The test verifies
        the leak is real (more distinct points than one pinned set).
        """
        rng = default_rng(2)
        mechanism = NFoldGaussianMechanism(BUDGET, rng=rng)
        selector = PosteriorSelector(mechanism.posterior_sigma, rng=rng)

        reports = []
        for _ in range(30):  # 30 restarts, each losing the table
            module = ObfuscationModule(mechanism)
            module.ensure_obfuscated([HOME])
            reports += serve_reports(module, selector, 30)
        distinct = {(p.x, p.y) for p in reports}
        # Posterior selection concentrates on ~a few candidates per set,
        # but every restart leaks a fresh set: far more distinct points
        # than the <= 10 a durable table would ever show.
        assert len(distinct) >= 60
        # The mean across restarts closes in on the true location.
        arr = np.array([(p.x, p.y) for p in reports])
        mean_err = np.hypot(*arr.mean(axis=0))
        assert mean_err < mechanism.sigma / 2


class TestLedgerExhaustionMidStream:
    def test_new_top_degrades_to_nomadic_never_plaintext(self):
        rng = default_rng(3)
        mechanism = NFoldGaussianMechanism(BUDGET, rng=rng)
        nomadic = GaussianMechanism(BUDGET.with_n(1), rng=rng)
        ledger = PrivacyLedger(max_epsilon=1.0)  # exactly one pin
        module = ObfuscationModule(mechanism, ledger=ledger)

        module.ensure_obfuscated([HOME])
        new_top = Point(20_000.0, 0.0)
        module.ensure_obfuscated([new_top])  # refused by the cap
        assert module.skipped_by_ledger == 1
        assert module.candidates_for(new_top) is None

        # The edge's fallback: serve the new top through the nomadic path.
        reported = nomadic.obfuscate(new_top)[0]
        assert reported != new_top
        assert reported.distance_to(new_top) > 10.0


class TestMalformedInputsFailLoud:
    def test_out_of_order_checkins_rejected(self):
        from repro.edge.location_management import LocationManagementModule

        module = LocationManagementModule()
        module.record(CheckIn(100.0, HOME))
        with pytest.raises(ValueError):
            module.record(CheckIn(50.0, HOME))

    def test_corrupted_table_document_rejected(self):
        with pytest.raises(ValueError):
            table_from_json('{"kind": "trace", "checkins": []}')

    def test_nonfinite_budget_rejected(self):
        with pytest.raises(ValueError):
            GeoIndBudget(r=float("nan"), epsilon=1.0, delta=0.01, n=1)

    def test_empty_candidate_pin_rejected(self):
        module = ObfuscationModule(NFoldGaussianMechanism(BUDGET))
        with pytest.raises(ValueError):
            module.table.pin(HOME, [])
