"""The longitudinal location exposure attack, end to end (paper Section III).

Run with::

    python examples/attack_demo.py

Reproduces the Figure 4 case study: a victim's year of check-ins is
perturbed with one-time planar Laplace noise (the classic geo-IND
deployment), and the de-obfuscation attack recovers the victim's home with
increasing precision as the observation window grows — then the same
attack is shown failing against the permanent n-fold Gaussian defense.
"""

import math

from repro import GeoIndBudget, NFoldGaussianMechanism, PlanarLaplaceMechanism
from repro.attack import DeobfuscationAttack
from repro.core import default_rng
from repro.datagen import make_fig4_user, one_time_obfuscate
from repro.datagen.shanghai import STUDY_START_TS
from repro.profiles import SECONDS_PER_DAY, checkins_to_array, filter_window
from repro.serve import attack_egress, run_population


def main() -> None:
    victim = make_fig4_user()
    home = victim.true_tops[0]
    print(
        f"victim: {len(victim.trace)} check-ins over a year; "
        f"home at ({home.x:.0f}, {home.y:.0f})"
    )

    # --- One-time geo-IND deployment (what the paper attacks) -----------
    laplace = PlanarLaplaceMechanism.from_level(
        math.log(2), 200.0, rng=default_rng(1)
    )
    observed = one_time_obfuscate(victim.trace, laplace)
    attack = DeobfuscationAttack.against(laplace)

    print("\nattacking one-time geo-IND (l = ln 2 at 200 m):")
    for label, days in (("one week", 7), ("one month", 30), ("full year", 365)):
        window = filter_window(
            observed, STUDY_START_TS, STUDY_START_TS + days * SECONDS_PER_DAY
        )
        guesses = attack.estimate_xy(checkins_to_array(window), 1) if window else []
        err = guesses[0].distance_to(home) if guesses else float("inf")
        print(f"  {label:>9} ({len(window):4d} obs): home recovered to {err:7.1f} m")

    # --- The Edge-PrivLocAd defense --------------------------------------
    # The same year replayed through the edge service: the victim's actor
    # pins each closed window's top locations once and serves every other
    # check-in with fresh one-shot noise.
    budget = GeoIndBudget(r=500.0, epsilon=1.0, delta=0.01, n=10)
    defended = run_population([victim], seed=2).responses

    defended_attack = DeobfuscationAttack.against(NFoldGaussianMechanism(budget))
    guesses = attack_egress(defended, defended_attack, 1).get(0, [])
    err = guesses[0].distance_to(home) if guesses else float("inf")
    print("\nattacking the permanent 10-fold Gaussian defense:")
    print(f"  full year ({len(defended)} obs): best guess is {err:7.1f} m away")
    print("  (paper: <1% of users recovered within 200 m under the defense)")


if __name__ == "__main__":
    main()
