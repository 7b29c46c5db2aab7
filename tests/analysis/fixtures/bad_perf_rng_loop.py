"""PERF001 fixture: a per-user Generator built inside a loop."""

from typing import List

import numpy as np

from repro.kernels import gaussian
from repro.kernels.gaussian import user_rng


def draw_all(seed: int, user_ids: List[int], count: int) -> List[np.ndarray]:
    """One SeedSequence + PCG64 construction per user."""
    return [user_rng(seed, uid).random(count) for uid in user_ids]


def draw_each(seed: int, user_ids: List[int], count: int) -> List[np.ndarray]:
    """The same per-user seeding through the module attribute."""
    out = []
    for uid in user_ids:
        out.append(gaussian.user_rng(seed, uid).random(count))
    return out
