"""Population generator calibrated to the paper's dataset statistics.

The paper's (proprietary) dataset has 37,262 Shanghai users observed over
two years, contributing between 20 and 11,435 check-ins each (~1k on
average), with strongly routine-driven mobility: 88.8 % of users have
location entropy below 2, and entropy declines as the number of check-ins
grows (Figure 3).  This module synthesises a population with the same
aggregate structure:

* per-user check-in counts follow a clipped log-normal with the paper's
  bounds and a ~1k mean;
* each user has 1-4 top locations whose routine share grows with how
  active the user is (heavy reporters are commuters whose traffic is
  dominated by home/work);
* the remaining check-ins are nomadic one-offs around the user's home.

The calibration test suite checks the generated population against the
paper's published statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.datagen.mobility import MobilityModel, TopLocation
from repro.datagen.shanghai import STUDY_DAYS, STUDY_START_TS, shanghai_planar_bbox
from repro.geo.bbox import BoundingBox
from repro.geo.point import Point
from repro.profiles.checkin import CheckIn

__all__ = [
    "PopulationConfig",
    "SyntheticUser",
    "generate_population",
    "iter_population",
    "iter_population_spawned",
    "rake_marginals",
    "figure3_marginals",
    "rake_figure3_joint",
]

#: The paper's per-user check-in bounds.
PAPER_MIN_CHECKINS = 20
PAPER_MAX_CHECKINS = 11_435

#: Figure 3's published entropy split: 88.8 % of users sit below entropy 2.
FIG3_ENTROPY_MARGINAL = (0.888, 0.112)


@dataclass(frozen=True)
class PopulationConfig:
    """Knobs of the synthetic population.

    Defaults reproduce the paper's aggregate statistics at a laptop-friendly
    scale; set ``n_users=37_262`` for full paper scale.
    """

    n_users: int = 2_000
    seed: int = 20220522
    start_ts: float = STUDY_START_TS
    days: float = STUDY_DAYS
    min_checkins: int = PAPER_MIN_CHECKINS
    max_checkins: int = PAPER_MAX_CHECKINS
    #: Log-normal parameters of the check-in count (mean ~= 1k with a heavy
    #: tail reaching the paper's 11,435 cap).
    count_log_mean: float = math.log(450.0)
    count_log_sigma: float = 1.15
    #: Nomadic share at the minimum check-in count and its power-law decay
    #: with activity (more active users are more routine-bound, which
    #: produces Figure 3's declining entropy trend): a user with ``n``
    #: check-ins gets ``base * (n / min_checkins) ** -decay`` nomadic share
    #: before log-normal per-user noise.
    nomadic_base: float = 0.5
    nomadic_decay: float = 0.47
    nomadic_min: float = 0.01
    nomadic_max: float = 0.5
    gps_noise_m: float = 15.0
    region_margin_m: float = 10_000.0

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {self.n_users}")
        if self.min_checkins < 1 or self.max_checkins < self.min_checkins:
            raise ValueError("invalid check-in bounds")
        if self.days <= 0:
            raise ValueError("days must be positive")


@dataclass
class SyntheticUser:
    """A generated user: ground truth plus the raw (unperturbed) trace."""

    user_id: str
    model: MobilityModel
    trace: List[CheckIn]

    @property
    def true_tops(self) -> List[Point]:
        """Ground-truth top locations, most frequent first."""
        return self.model.true_top_points

    @property
    def n_checkins(self) -> int:
        """Number of check-ins in the user's trace."""
        return len(self.trace)


def _draw_count(config: PopulationConfig, rng: np.random.Generator) -> int:
    raw = rng.lognormal(config.count_log_mean, config.count_log_sigma)
    return int(np.clip(raw, config.min_checkins, config.max_checkins))


def _draw_anchor_points(
    home_region: BoundingBox, n_tops: int, rng: np.random.Generator
) -> List[Tuple[Point, str]]:
    """Home uniformly in the (margined) region; other anchors in rings around it."""
    hx = rng.uniform(home_region.min_x, home_region.max_x)
    hy = rng.uniform(home_region.min_y, home_region.max_y)
    anchors: List[Tuple[Point, str]] = [(Point(float(hx), float(hy)), "home")]
    ring_bounds = [(2_000.0, 15_000.0), (500.0, 5_000.0), (500.0, 5_000.0)]
    kinds = ["work", "other", "other"]
    for j in range(n_tops - 1):
        lo, hi = ring_bounds[j]
        radius = rng.uniform(lo, hi)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        anchors.append(
            (
                Point(float(hx + radius * math.cos(theta)), float(hy + radius * math.sin(theta))),
                kinds[j],
            )
        )
    return anchors


def _draw_weights(n_tops: int, activity: float, rng: np.random.Generator) -> np.ndarray:
    """Routine-share split across top locations, top-1 dominant.

    ``activity`` in [0, 1] scales how much the top-1 location dominates:
    heavy reporters are strongly home-anchored.
    """
    top1 = rng.uniform(0.5, 0.65) + 0.25 * activity
    top1 = min(top1, 0.9)
    if n_tops == 1:
        return np.array([1.0])
    rest = rng.dirichlet(np.linspace(2.0, 1.0, n_tops - 1)) * (1.0 - top1)
    weights = np.concatenate([[top1], np.sort(rest)[::-1]])
    return weights / weights.sum()


def _build_user(
    idx: int, config: PopulationConfig, rng: np.random.Generator
) -> Tuple[MobilityModel, int]:
    region = shanghai_planar_bbox()
    home_region = region.expand(-config.region_margin_m)
    n_checkins = _draw_count(config, rng)
    # Activity score in [0, 1] on a log scale between the count bounds.
    activity = math.log(n_checkins / config.min_checkins) / math.log(
        config.max_checkins / config.min_checkins
    )
    n_tops = int(rng.choice([1, 2, 3, 4], p=[0.15, 0.5, 0.25, 0.1]))
    anchors = _draw_anchor_points(home_region, n_tops, rng)
    weights = _draw_weights(n_tops, activity, rng)
    tops = [
        TopLocation(point=p, weight=float(w), kind=kind)
        for (p, kind), w in zip(anchors, weights)
    ]
    nomadic = config.nomadic_base * (
        n_checkins / config.min_checkins
    ) ** (-config.nomadic_decay)
    nomadic *= float(rng.lognormal(0.0, 0.35))
    nomadic = float(np.clip(nomadic, config.nomadic_min, config.nomadic_max))
    model = MobilityModel(
        user_id=f"user-{idx:06d}",
        top_locations=tops,
        nomadic_fraction=nomadic,
        gps_noise_m=config.gps_noise_m,
        region=region,
    )
    return model, n_checkins


def iter_population(config: PopulationConfig) -> Iterator[SyntheticUser]:
    """Stream users one at a time (constant memory for very large populations)."""
    rng = np.random.default_rng(config.seed)
    for idx in range(config.n_users):
        model, n_checkins = _build_user(idx, config, rng)
        trace = model.generate(n_checkins, config.start_ts, config.days, rng)
        yield SyntheticUser(user_id=model.user_id, model=model, trace=trace)


def iter_population_spawned(
    config: PopulationConfig, start: int = 0, stop: Optional[int] = None
) -> Iterator[SyntheticUser]:
    """Stream users ``[start, stop)`` with per-user spawned RNG streams.

    Unlike :func:`iter_population` (ONE sequential rng, so user ``i``
    depends on all users before it), each user here draws from
    ``SeedSequence(entropy=config.seed, spawn_key=(i,))`` — user ``i`` is
    a pure function of ``(config, i)``.  That makes arbitrary index
    ranges generable independently, which is what lets the dataset tiers
    build 100k-user populations shard-parallel and cache each shard
    separately while remaining bit-identical for any shard schedule.
    """
    stop = config.n_users if stop is None else stop
    if not 0 <= start <= stop <= config.n_users:
        raise ValueError(
            f"invalid user range [{start}, {stop}) for {config.n_users} users"
        )
    for idx in range(start, stop):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(idx,))
        )
        model, n_checkins = _build_user(idx, config, rng)
        trace = model.generate(n_checkins, config.start_ts, config.days, rng)
        yield SyntheticUser(user_id=model.user_id, model=model, trace=trace)


def generate_population(config: Optional[PopulationConfig] = None) -> List[SyntheticUser]:
    """Materialise the whole population (fine up to a few thousand users)."""
    if config is None:
        config = PopulationConfig()
    return list(iter_population(config))


def rake_marginals(
    seed: np.ndarray,
    row_targets: Sequence[float],
    col_targets: Sequence[float],
    tol: float = 1e-10,
    max_iters: int = 500,
) -> Tuple[np.ndarray, int, float]:
    """Rake ``seed`` to the target marginals by iterative proportional fitting.

    Classic IPF: alternately rescale rows then columns of a non-negative
    seed table until both marginals match the targets.  The fixed point
    preserves the seed's cross-ratios (odds structure) while matching the
    targets exactly — which is how tier calibration pins the check-in
    count x entropy joint to Figure 3's published marginals in a handful
    of vectorised sweeps, instead of per-user rejection loops whose cost
    scales with the population.

    Returns ``(fitted, iterations, max_abs_error)`` where the error is
    the worst absolute marginal deviation at exit.  Raises ``ValueError``
    on malformed inputs (shape mismatch, negative mass, a zero seed
    row/column asked to carry positive target mass) and ``RuntimeError``
    if the tolerance is not reached within ``max_iters`` sweeps — a zero
    pattern in the seed can make the targets unreachable.
    """
    table = np.array(seed, dtype=np.float64, copy=True)
    rows = np.asarray(row_targets, dtype=np.float64)
    cols = np.asarray(col_targets, dtype=np.float64)
    if table.ndim != 2:
        raise ValueError(f"seed must be 2-D, got shape {table.shape}")
    if rows.shape != (table.shape[0],) or cols.shape != (table.shape[1],):
        raise ValueError(
            f"marginal shapes {rows.shape}/{cols.shape} do not match "
            f"seed shape {table.shape}"
        )
    if np.any(table < 0) or np.any(rows < 0) or np.any(cols < 0):
        raise ValueError("seed and target marginals must be non-negative")
    if not math.isclose(float(rows.sum()), float(cols.sum()), rel_tol=1e-9, abs_tol=1e-12):
        raise ValueError(
            f"marginal totals disagree: rows sum to {rows.sum()!r}, "
            f"columns to {cols.sum()!r}"
        )
    if np.any((table.sum(axis=1) == 0) & (rows > 0)):
        raise ValueError("a zero seed row cannot carry positive target mass")
    if np.any((table.sum(axis=0) == 0) & (cols > 0)):
        raise ValueError("a zero seed column cannot carry positive target mass")

    err = math.inf
    for iteration in range(1, max_iters + 1):
        row_sums = table.sum(axis=1)
        table *= np.divide(
            rows, row_sums, out=np.zeros_like(rows), where=row_sums > 0
        )[:, np.newaxis]
        col_sums = table.sum(axis=0)
        table *= np.divide(
            cols, col_sums, out=np.zeros_like(cols), where=col_sums > 0
        )[np.newaxis, :]
        # After the column sweep the column marginal is exact; convergence
        # is governed by how far the row marginal drifted.
        err = float(np.max(np.abs(table.sum(axis=1) - rows)))
        if err <= tol:
            return table, iteration, err
    raise RuntimeError(
        f"IPF did not converge in {max_iters} sweeps "
        f"(max marginal error {err:.3e} > tol {tol:.3e}); "
        "the seed's zero pattern may make the targets unreachable"
    )


def figure3_marginals(
    config: Optional[PopulationConfig] = None, n_count_bins: int = 4
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Figure 3 calibration targets for :func:`rake_marginals`.

    Returns ``(count_edges, count_marginal, entropy_marginal)``:
    geometric check-in-count bin edges spanning the config's clipped
    range, the exact mass the clipped log-normal count law puts in each
    bin (clip mass collapses into the boundary bins), and the paper's
    published entropy split (:data:`FIG3_ENTROPY_MARGINAL` — 88.8 % of
    users below entropy 2).
    """
    if config is None:
        config = PopulationConfig()
    edges = np.geomspace(
        float(config.min_checkins), float(config.max_checkins), n_count_bins + 1
    )

    def _phi(x: float) -> float:
        z = (math.log(x) - config.count_log_mean) / config.count_log_sigma
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    cdf = np.array([0.0] + [_phi(e) for e in edges[1:-1]] + [1.0])
    count_marginal = np.diff(cdf)
    return edges, count_marginal, np.asarray(FIG3_ENTROPY_MARGINAL)


def rake_figure3_joint(
    seed_joint: np.ndarray, config: Optional[PopulationConfig] = None
) -> Tuple[np.ndarray, int, float]:
    """Rake an empirical count x entropy joint onto Figure 3's marginals.

    ``seed_joint`` is a ``(n_count_bins, 2)`` histogram (rows: check-in
    count bins from :func:`figure3_marginals`; columns: entropy below /
    at-or-above 2).  The result keeps the seed's count-entropy coupling
    (Figure 3's declining trend) while matching the count law and the
    88.8 % low-entropy share exactly.
    """
    joint = np.asarray(seed_joint, dtype=np.float64)
    total = float(joint.sum())
    if total <= 0:
        raise ValueError("seed joint has no mass")
    _, count_marginal, entropy_marginal = figure3_marginals(
        config, n_count_bins=joint.shape[0] if joint.ndim == 2 else 0
    )
    return rake_marginals(joint / total, count_marginal, entropy_marginal)
