"""The location privacy-preserving mechanism (LPPM) interface.

Every mechanism in this library maps one true location to a *set* of
obfuscated output locations (a set of size one for the classic one-shot
mechanisms).  The interface also exposes the tail quantile of the noise
radius, which both the utility analysis and the *attacker* use: the
de-obfuscation attack's trimming radius ``r_alpha`` (paper Eq. 4) is the
radius beyond which an obfuscated check-in is implausible at confidence
``alpha``.

API stability — the canonical method pair
-----------------------------------------

The :class:`Mechanism` protocol names the two entry points every
mechanism exposes, scalar and columnar:

* ``obfuscate(location) -> List[Point]`` — one true location in, its
  output set out;
* ``obfuscate_batch(locations) -> np.ndarray`` — an ``(m, 2)``
  coordinate array in, the stacked outputs out: ``(m, 2)`` for
  single-output mechanisms, ``(m, n, 2)`` for n-fold ones.

``obfuscate_batch`` is the only columnar entry point (the former
``NFoldGaussianMechanism.obfuscate_many`` alias served its one-release
deprecation cycle and has been removed).  The trace-level helper
:func:`repro.datagen.obfuscate.one_time_obfuscate_xy` is the documented
fast-path entry point *over* this protocol — it routes whole coordinate
streams through ``obfuscate_batch`` while preserving the scalar path's
RNG call order bit-for-bit; the population kernels in
:mod:`repro.kernels` go one level further and stream whole CSR shards.
The Edge-PrivLocAd stream is the serve actor's
(:class:`repro.serve.actor.UserActor`), which calls ``obfuscate`` once
per pinned top and once per nomadic release.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.geo.point import Point

__all__ = ["LPPM", "Mechanism", "default_rng"]


def default_rng(seed: Optional[int] = None) -> np.random.Generator:
    """The library-wide RNG constructor (PCG64 via numpy's default)."""
    return np.random.default_rng(seed)


@runtime_checkable
class Mechanism(Protocol):
    """The canonical mechanism surface: the scalar/columnar method pair.

    Structural — any object with these members satisfies it; every
    shipped mechanism (Gaussian, n-fold Gaussian, planar Laplace, and the
    discretized wrapper) does.  ``obfuscate_batch`` must consume its RNG
    in one batched draw whose stream matches the equivalent sequence of
    scalar ``obfuscate`` calls, so columnar pipelines stay bit-identical
    to object pipelines at the same seed.
    """

    name: str

    @property
    def n_outputs(self) -> int:
        """How many obfuscated locations one obfuscate() call returns."""
        ...

    def obfuscate(self, location: Point) -> List[Point]:
        """The mechanism's output set for one true location."""
        ...

    def obfuscate_batch(self, locations: np.ndarray) -> np.ndarray:
        """Stacked outputs for an ``(m, 2)`` coordinate array.

        Shape ``(m, 2)`` for single-output mechanisms, ``(m, n, 2)`` for
        n-fold ones.
        """
        ...


class LPPM(abc.ABC):
    """Abstract base for location privacy-preserving mechanisms.

    Subclasses implement :meth:`obfuscate`, producing ``self.n_outputs``
    obfuscated locations for one true location, and
    :meth:`noise_tail_radius`, the radius such that a single output falls
    farther than it from the true location with probability at most
    ``alpha``.
    """

    #: Human-readable mechanism name used in reports and benchmarks.
    name: str = "lppm"

    def __init__(self, rng: Optional[np.random.Generator] = None) -> None:
        # Seeded fallback: library code must stay reproducible run to run;
        # callers wanting fresh entropy pass their own Generator.
        self._rng = rng if rng is not None else default_rng(0)

    @property
    def rng(self) -> np.random.Generator:
        """The Generator this mechanism draws from."""
        return self._rng

    def reseed(self, seed: int) -> None:
        """Replace the mechanism's RNG (for reproducible experiments)."""
        self._rng = default_rng(seed)

    @property
    @abc.abstractmethod
    def n_outputs(self) -> int:
        """How many obfuscated locations one call to obfuscate() returns."""

    @abc.abstractmethod
    def obfuscate(self, location: Point) -> List[Point]:
        """Produce the mechanism's obfuscated output set for one location."""

    @abc.abstractmethod
    def noise_tail_radius(self, alpha: float) -> float:
        """Radius r_alpha with ``Pr[dist(output, truth) > r_alpha] <= alpha``."""

    def obfuscate_one(self, location: Point) -> Point:
        """Convenience: obfuscate and return a single output.

        Only valid for single-output mechanisms; multi-output mechanisms
        must go through an output-selection policy instead.
        """
        outputs = self.obfuscate(location)
        if len(outputs) != 1:
            raise ValueError(
                f"{self.name} returns {len(outputs)} outputs; use an output "
                "selection policy rather than obfuscate_one()"
            )
        return outputs[0]

    def obfuscate_stream(self, locations: Sequence[Point]) -> List[List[Point]]:
        """Obfuscate each location in a stream independently."""
        return [self.obfuscate(p) for p in locations]
