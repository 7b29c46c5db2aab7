"""The adversary interface: the canonical ``observe``/``estimate`` pair.

Mirror of :mod:`repro.core.mechanism`: just as every mechanism exposes
the scalar/columnar ``obfuscate``/``obfuscate_batch`` pair, every
attacker exposes one canonical surface.

The canonical method pair
-------------------------

The :class:`Attacker` protocol names the two entry points:

* ``observe(observations)`` / ``estimate(n)`` — the *longitudinal*
  pair: feed ``(m, 2)`` reported-coordinate arrays into the attacker's
  evidence buffer as they leak, then recover the ``n`` most supported
  location estimates from everything observed so far;
* ``estimate_xy(coords, n) -> List[Point]`` — the stateless batch fast
  path: one ``(m, 2)`` array in, the estimates out, no buffer touched.

``estimate`` must equal ``estimate_xy`` over the concatenated buffer —
an attacker's conclusion depends on *what* it saw, never on how the
observations were batched.  :class:`AttackerBase` implements the buffer
plumbing so an attacker only writes ``estimate_xy``.  (The pre-protocol
``infer_top1`` spellings and the two-argument ``MAPAttack.estimate``
have been removed; ``MAPAttack.map_candidate`` is Eq. 5 over an
explicit candidate set.)
"""

from __future__ import annotations

from typing import List, Protocol, runtime_checkable

import numpy as np

from repro.geo.point import Point

__all__ = ["Attacker", "AttackerBase"]


@runtime_checkable
class Attacker(Protocol):
    """The canonical attacker surface: observe/estimate, plus the batch path.

    Structural — any object with these members satisfies it; every
    shipped attacker (Algorithm 1 de-obfuscation, k-means baseline,
    temporal refinement, MAP estimator) does.
    """

    name: str

    def observe(self, observations: np.ndarray) -> None:
        """Append an ``(m, 2)`` reported-coordinate array to the evidence."""
        ...

    def estimate(self, n: int) -> List[Point]:
        """Up to ``n`` location estimates from everything observed."""
        ...

    def estimate_xy(self, coords: np.ndarray, n: int) -> List[Point]:
        """Batch fast path: estimates for one ``(m, 2)`` array, statelessly."""
        ...


class AttackerBase:
    """Evidence-buffer plumbing shared by the shipped attackers.

    Subclasses set :attr:`name` and implement :meth:`estimate_xy`;
    ``observe``/``estimate``/``reset`` come for free.  The buffer keeps
    the arrays as given and concatenates lazily, so repeated observe
    calls stay O(1) and ``estimate`` sees one contiguous array.
    """

    name: str = "attacker"

    def __init__(self) -> None:
        self._observed: List[np.ndarray] = []

    def observe(self, observations: np.ndarray) -> None:
        """Append an ``(m, 2)`` reported-coordinate array to the evidence."""
        coords = np.asarray(observations, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError(f"expected (m, 2) array, got {coords.shape}")
        if len(coords):
            self._observed.append(coords)

    @property
    def observations(self) -> np.ndarray:
        """Everything observed so far as one ``(m, 2)`` array."""
        if not self._observed:
            return np.empty((0, 2), dtype=float)
        if len(self._observed) == 1:
            return self._observed[0]
        return np.concatenate(self._observed, axis=0)

    def reset(self) -> None:
        """Forget all buffered observations."""
        self._observed = []

    def estimate(self, n: int) -> List[Point]:
        """Up to ``n`` estimates over the concatenated evidence buffer."""
        return self.estimate_xy(self.observations, n)

    def estimate_xy(self, coords: np.ndarray, n: int) -> List[Point]:
        """Batch fast path; subclasses implement this one method."""
        raise NotImplementedError

    # Shared validation for estimate_xy implementations.
    @staticmethod
    def _check_request(coords: np.ndarray, n: int) -> np.ndarray:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError(f"expected (m, 2) array, got {coords.shape}")
        return coords
