"""Edge privacy dashboard: per-user risk and red-team exposure margins.

Run with::

    python examples/risk_dashboard.py

The trusted edge can see both sides — true profiles and the outgoing
obfuscated stream — so it can continuously audit its own protection: score
every user's longitudinal risk (paper Section I) and run the paper's
de-obfuscation attack against its own reports to measure each user's
exposure margin under the current LPPM.
"""

import math

from repro.attack import DeobfuscationAttack
from repro.core import (
    GeoIndBudget,
    NFoldGaussianMechanism,
    PlanarLaplaceMechanism,
    default_rng,
)
from repro.datagen import PopulationConfig, generate_population, one_time_obfuscate
from repro.edge import RiskAssessor, self_attack_margin
from repro.profiles import LocationProfile
from repro.serve import attack_egress, run_population


def main() -> None:
    users = generate_population(PopulationConfig(n_users=8, seed=33))
    assessor = RiskAssessor()
    budget = GeoIndBudget(r=500.0, epsilon=1.0, delta=0.01, n=10)
    # The permanent n-fold deployment is the edge service itself: replay
    # every user's trace through it and red-team what it released.
    defended = attack_egress(
        run_population(users, seed=2).responses,
        DeobfuscationAttack.against(NFoldGaussianMechanism(budget)),
        2,
    )

    header = (
        f"{'user':<12} {'check-ins':>9} {'entropy':>8} {'risk':>7} "
        f"{'margin one-time':>16} {'margin n-fold':>14}"
    )
    print(header)
    print("-" * len(header))

    for i, user in enumerate(users):
        profile = LocationProfile.from_checkins(user.trace)
        assessment = assessor.assess(profile)

        # Red-team margin under the legacy one-time deployment...
        laplace = PlanarLaplaceMechanism.from_level(
            math.log(2), 200.0, rng=default_rng(1)
        )
        onetime_stream = one_time_obfuscate(user.trace, laplace)
        margin_onetime = self_attack_margin(
            onetime_stream, user.true_tops, laplace
        )

        # ...and under the deployed edge's own releases.
        margin_defended = min(
            (g.distance_to(t) for g in defended.get(i, []) for t in user.true_tops),
            default=float("inf"),
        )

        print(
            f"{user.user_id:<12} {user.n_checkins:>9} "
            f"{assessment.entropy:>8.2f} {assessment.level.value:>7} "
            f"{margin_onetime:>14.0f} m {margin_defended:>12.0f} m"
        )

    print(
        "\nreading: one-time margins of tens of metres mean those users' "
        "homes are effectively public; the n-fold deployment keeps every "
        "margin at hundreds of metres to kilometres."
    )


if __name__ == "__main__":
    main()
