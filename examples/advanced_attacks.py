"""Attacker-variant study: Algorithm 1 vs baselines vs semantic inference.

Run with::

    python examples/advanced_attacks.py

Perturbs one victim's year of check-ins with one-time geo-IND noise and
compares four attackers:

* the paper's Algorithm 1 (connectivity clustering + trimming);
* a k-means baseline (shows why the paper's design matters);
* the temporal attacker (labels *home* vs *work place* from time-of-day);
* the MAP estimator (Eq. 5) given a prior candidate set.
"""

import math

import numpy as np

from repro.attack import DeobfuscationAttack, KMeansAttack, MAPAttack, TemporalAttack
from repro.core import PlanarLaplaceMechanism, default_rng
from repro.datagen import make_fig4_user, one_time_obfuscate
from repro.geo.point import Point


def main() -> None:
    victim = make_fig4_user()
    home, office = victim.true_tops[0], victim.true_tops[1]
    mechanism = PlanarLaplaceMechanism.from_level(
        math.log(2), 200.0, rng=default_rng(11)
    )
    observed = one_time_obfuscate(victim.trace, mechanism)
    coords = np.array([(c.x, c.y) for c in observed])
    print(f"victim: {len(observed)} perturbed check-ins (l = ln 2 at 200 m)\n")

    # --- Algorithm 1 ------------------------------------------------------
    alg1 = DeobfuscationAttack.against(mechanism)
    (guess,) = alg1.estimate_xy(coords, 1)
    print(f"Algorithm 1 (paper):    home to {guess.distance_to(home):7.1f} m")

    # --- k-means baseline -------------------------------------------------
    km = KMeansAttack(k=8, rng=default_rng(2))
    (guess,) = km.estimate_xy(coords, 1)
    print(f"k-means baseline:       home to {guess.distance_to(home):7.1f} m")

    # --- Temporal (semantic) attacker --------------------------------------
    temporal = TemporalAttack(alg1)
    inferred_home, inferred_work = temporal.infer_home_and_work(observed)
    print(
        f"temporal attacker:      home to {inferred_home.distance_to(home):7.1f} m, "
        f"work to {inferred_work.distance_to(office):7.1f} m (labelled!)"
    )

    # --- MAP estimator with a prior candidate set --------------------------
    # The attacker knows 5 plausible addresses within ~400 m of the truth,
    # and first isolates the home observations with the temporal filter
    # (the estimator assumes one underlying location per observation set).
    rng = default_rng(3)
    candidates = [home] + [
        Point(home.x + dx, home.y + dy) for dx, dy in rng.uniform(-400, 400, (4, 2))
    ]
    from repro.attack.temporal import NIGHT

    night_obs = [c.point for c in observed if NIGHT.contains(c.timestamp)]
    map_attack = MAPAttack.laplace(mechanism.epsilon)
    est = map_attack.map_candidate(night_obs, candidates)
    print(
        f"MAP estimator (Eq. 5):  picked the true address with posterior "
        f"{est.posterior[0]:.3f} from 5 candidates "
        f"({'correct' if est.index == 0 else 'WRONG'})"
    )

    print(
        "\nreading: generic clustering underperforms the tuned Algorithm 1; "
        "time-of-day labels the semantics; with any prior knowledge the MAP "
        "attacker is near-certain. One-time geo-IND cannot survive "
        "longitudinal observation."
    )


if __name__ == "__main__":
    main()
