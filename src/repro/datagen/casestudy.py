"""Single-user fixtures matching the paper's illustrative examples.

* Figure 2's victim: a 7-day trace of 2,414 check-ins concentrated on two
  top locations (home and office).
* Figure 4's victim: 1,969 check-ins over a full year, of which 1,628
  belong to the top-1 location.
"""

from __future__ import annotations


import numpy as np

from repro.datagen.mobility import MobilityModel, TopLocation
from repro.datagen.population import SyntheticUser
from repro.datagen.shanghai import STUDY_START_TS, shanghai_planar_bbox
from repro.geo.point import Point

__all__ = ["make_fig2_user", "make_fig4_user"]


def _victim_model(
    user_id: str, nomadic_fraction: float, top1_weight: float
) -> MobilityModel:
    region = shanghai_planar_bbox()
    home = region.center
    office = Point(home.x + 4_200.0, home.y + 1_500.0)
    errand = Point(home.x - 1_100.0, home.y + 2_300.0)
    rest = 1.0 - top1_weight
    return MobilityModel(
        user_id=user_id,
        top_locations=[
            TopLocation(home, top1_weight, "home"),
            TopLocation(office, rest * 0.8, "work"),
            TopLocation(errand, rest * 0.2, "other"),
        ],
        nomadic_fraction=nomadic_fraction,
        region=region,
    )


def make_fig2_user(seed: int = 7, n_checkins: int = 2_414) -> SyntheticUser:
    """The Figure 2 victim: 7 days, ~2.4k check-ins, two dominant locations."""
    rng = np.random.default_rng(seed)
    model = _victim_model("fig2-victim", nomadic_fraction=0.03, top1_weight=0.62)
    trace = model.generate(n_checkins, STUDY_START_TS, days=7.0, rng=rng)
    return SyntheticUser(user_id=model.user_id, model=model, trace=trace)


def make_fig4_user(
    seed: int = 4,
    n_checkins: int = 1_969,
    top1_checkins: int = 1_628,
    days: float = 365.0,
) -> SyntheticUser:
    """The Figure 4 case-study victim with the paper's exact composition.

    The top-1 share is pinned (1,628 / 1,969 ~= 0.827) rather than drawn,
    so the de-obfuscation case study runs on the same evidence mass the
    paper reports.
    """
    if top1_checkins > n_checkins:
        raise ValueError("top-1 check-ins cannot exceed the total")
    top1_weight = top1_checkins / n_checkins
    # Remaining mass split between the office and errand anchors with a
    # thin nomadic residue.
    rng = np.random.default_rng(seed)
    model = _victim_model(
        "fig4-victim", nomadic_fraction=0.02, top1_weight=top1_weight / (1 - 0.02)
    )
    trace = model.generate(n_checkins, STUDY_START_TS, days=days, rng=rng)
    return SyntheticUser(user_id=model.user_id, model=model, trace=trace)
