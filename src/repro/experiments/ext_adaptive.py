"""Extension experiment: risk-adaptive LPPM selection at the edge.

The paper's edge is supposed to "assess the risk of location privacy
breaches ... and adopt the appropriate LPPM" (Section I).  This experiment
quantifies that policy against the two static extremes:

* **all one-time** — every user reports through per-check-in planar
  Laplace noise (sharp reports, no longitudinal protection);
* **adaptive** — the edge assesses each user's risk from their profile
  and gives MEDIUM/HIGH-risk users the permanent n-fold treatment while
  LOW-risk users keep one-time noise;
* **all permanent** — every user gets the n-fold treatment.

The n-fold treatment is the Section V edge pipeline itself: the user's
check-ins replay through a :class:`~repro.serve.actor.UserActor`, so the
attacked stream is what the deployed edge would release.

Reported per policy: longitudinal attack success (privacy) and the mean
distance between true and reported locations (report utility).  The
adaptive policy should track the permanent policy's privacy at a fraction
of its utility cost, because the vulnerable users are exactly the
routine-heavy ones.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.attack.deobfuscation import DeobfuscationAttack
from repro.attack.success import UserAttackOutcome, evaluate_user, success_rate
from repro.core.accounting import LongitudinalExposureAccountant
from repro.core.gaussian import NFoldGaussianMechanism
from repro.core.laplace import PlanarLaplaceMechanism
from repro.core.mechanism import default_rng
from repro.core.params import GeoIndBudget
from repro.datagen.obfuscate import one_time_obfuscate
from repro.datagen.population import PopulationConfig, SyntheticUser, iter_population
from repro.edge.clock import VirtualTimeSource
from repro.edge.risk import RiskAssessor
from repro.experiments.config import SMALL, ExperimentScale
from repro.experiments.tables import ExperimentReport
from repro.geo.point import Point, points_to_array
from repro.profiles.profile import LocationProfile
from repro.serve.actor import EdgeConfig, UserActor

__all__ = ["run", "POLICIES"]

POLICIES = ("all one-time", "adaptive", "all permanent")

_ONETIME_LEVEL = math.log(2)
_DEFENSE_BUDGET = GeoIndBudget(r=500.0, epsilon=1.0, delta=0.01, n=10)


def _report_stream(
    user: SyntheticUser,
    policy: str,
    assessor: RiskAssessor,
    seed: int,
    accountant: LongitudinalExposureAccountant,
) -> Tuple[List[Point], bool]:
    """The user's reported locations under a policy; returns (stream, permanent?).

    Every release is charged to ``accountant``: one epsilon-per-metre
    observation per check-in on the one-time path (they compose); on the
    permanent path the user's serve actor releases the stream, and each
    of its pins and nomadic draws is one epsilon-per-metre release
    (replays of a pinned candidate are free by the sufficient-statistic
    analysis).
    """
    profile = LocationProfile.from_checkins(user.trace)
    if policy == "all one-time":
        permanent = False
    elif policy == "all permanent":
        permanent = True
    elif policy == "adaptive":
        permanent = assessor.assess(profile).needs_permanent_obfuscation
    else:
        raise ValueError(f"unknown policy: {policy}")

    if not permanent:
        mech = PlanarLaplaceMechanism.from_level(
            _ONETIME_LEVEL, 200.0, rng=default_rng(seed)
        )
        stream = [c.point for c in one_time_obfuscate(user.trace, mech)]
        accountant.observe(mech.epsilon, count=max(1, len(stream)))
        return stream, False
    # ``seed`` is per user, so user index 0 keys a distinct stream for each.
    actor = UserActor(
        str(seed), 0, seed, EdgeConfig(budget=_DEFENSE_BUDGET),
        time_source=VirtualTimeSource(),
    )
    stream = [actor.handle_checkin(c.timestamp, c.x, c.y)[0] for c in user.trace]
    accountant.observe(
        _DEFENSE_BUDGET.epsilon / _DEFENSE_BUDGET.r,
        count=actor.ledger.spends + actor.accountant.observations,
    )
    return stream, True


def _attack_stream(permanent: bool) -> DeobfuscationAttack:
    mech = (
        NFoldGaussianMechanism(_DEFENSE_BUDGET)
        if permanent
        else PlanarLaplaceMechanism.from_level(_ONETIME_LEVEL, 200.0)
    )
    return DeobfuscationAttack.against(mech)


def run(scale: ExperimentScale = SMALL) -> ExperimentReport:
    """Compare the three protection policies on one population."""
    users = list(
        iter_population(PopulationConfig(n_users=scale.n_users, seed=scale.seed))
    )
    assessor = RiskAssessor()
    rows = []
    for policy in POLICIES:
        outcomes: List[UserAttackOutcome] = []
        report_errors: List[float] = []
        protected = 0
        accountant = LongitudinalExposureAccountant()
        for i, user in enumerate(users):
            stream, permanent = _report_stream(
                user, policy, assessor, seed=scale.seed + i, accountant=accountant
            )
            protected += int(permanent)
            report_errors.extend(
                true.point.distance_to(obs) for true, obs in zip(user.trace, stream)
            )
            inferred = _attack_stream(permanent).estimate_xy(points_to_array(stream), 1)
            outcomes.append(evaluate_user(inferred, user.true_tops[:1]))
        rows.append(
            {
                "policy": policy,
                "permanent_users": protected,
                "attack_top1_within_200m": success_rate(outcomes, 1, 200.0),
                "mean_report_error_m": float(np.mean(report_errors)),
                "epsilon_per_m_spent": accountant.total_epsilon,
            }
        )
    return ExperimentReport(
        experiment_id="ext_adaptive",
        title="risk-adaptive LPPM selection (extension)",
        rows=rows,
        notes=[
            "the edge protects only users its risk assessment flags; the "
            "vulnerable users are the routine-heavy ones, so adaptive "
            "should approach all-permanent privacy at lower report cost",
        ],
        meta={"workload": scale.workload()},
    )
