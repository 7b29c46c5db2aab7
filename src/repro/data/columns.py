"""Struct-of-arrays containers for check-in populations (CSR layout).

``CheckInColumns`` stores a whole population's check-ins as four flat
arrays — ``xs``/``ys`` (float64 planar metres), ``timestamps`` (float64
unix seconds) and ``offsets`` (int64 CSR user offsets) — so that per-user
work reads contiguous slices instead of materialising per-user
``CheckIn`` object lists.  ``PopulationColumns`` adds the ground-truth
top locations in the same layout, which is everything the attack
experiments need from a :class:`~repro.datagen.population.SyntheticUser`.

Conversions are lossless and order-preserving: ``from_traces`` followed
by ``to_traces`` reproduces the exact same coordinates and timestamps the
object path carried, which is what keeps columnar pipelines bit-identical
to the original per-object pipelines.

The flat arrays are also the unit of transport for the shared-memory
fan-out in :mod:`repro.parallel.shared`: a population ships to workers as
a handful of named segments instead of a pickle of millions of objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence

import numpy as np

from repro.geo.point import Point
from repro.profiles.checkin import CheckIn

__all__ = ["CheckInColumns", "PopulationColumns", "chunk_csr"]


def chunk_csr(
    xs: np.ndarray, ys: np.ndarray, offsets: np.ndarray, lo: int, hi: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Rebase users ``[lo, hi)`` of a CSR bundle to local offsets.

    Returns array views (no copies) over the users' rows plus a rebased
    offsets array — the unit the population kernels consume when a chunk
    worker owns a contiguous user range of a larger shard.
    """
    start = offsets[lo]
    return xs[start:offsets[hi]], ys[start:offsets[hi]], offsets[lo:hi + 1] - start


def _as_float64(arr: "np.ndarray | Sequence[float]", name: str) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {out.shape}")
    return out


def _as_offsets(arr: "np.ndarray | Sequence[int]", n_checkins: int) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.int64)
    if out.ndim != 1 or len(out) < 1:
        raise ValueError("offsets must be a one-dimensional array of length >= 1")
    if out[0] != 0 or out[-1] != n_checkins:
        raise ValueError(
            f"offsets must run from 0 to {n_checkins}, got [{out[0]}, {out[-1]}]"
        )
    if (np.diff(out) < 0).any():
        raise ValueError("offsets must be non-decreasing")
    return out


@dataclass(frozen=True)
class CheckInColumns:
    """A population of check-ins in CSR struct-of-arrays layout.

    ``xs[offsets[i]:offsets[i+1]]`` (and likewise ``ys``/``timestamps``)
    are user ``i``'s check-ins in their original trace order.
    """

    xs: np.ndarray
    ys: np.ndarray
    timestamps: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "xs", _as_float64(self.xs, "xs"))
        object.__setattr__(self, "ys", _as_float64(self.ys, "ys"))
        object.__setattr__(self, "timestamps", _as_float64(self.timestamps, "timestamps"))
        if not (len(self.xs) == len(self.ys) == len(self.timestamps)):
            raise ValueError("xs, ys and timestamps must have equal lengths")
        object.__setattr__(self, "offsets", _as_offsets(self.offsets, len(self.xs)))

    @property
    def n_users(self) -> int:
        """Number of users (CSR rows)."""
        return len(self.offsets) - 1

    @property
    def n_checkins(self) -> int:
        """Total number of check-ins across all users."""
        return len(self.xs)

    @property
    def nbytes(self) -> int:
        """Total payload size of the four arrays, in bytes."""
        return int(
            self.xs.nbytes + self.ys.nbytes + self.timestamps.nbytes + self.offsets.nbytes
        )

    def user_slice(self, i: int) -> slice:
        """The ``[start, end)`` slice of user ``i``'s rows in the flat arrays."""
        if not 0 <= i < self.n_users:
            raise IndexError(f"user index {i} out of range [0, {self.n_users})")
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def user_coords(self, i: int) -> np.ndarray:
        """User ``i``'s check-in coordinates as an ``(k, 2)`` float array.

        Identical values (and row order) to ``checkins_to_array(trace)``
        on the object path — the contract the bit-identity tests pin.
        """
        s = self.user_slice(i)
        return np.column_stack((self.xs[s], self.ys[s]))

    def user_timestamps(self, i: int) -> np.ndarray:
        """User ``i``'s timestamps (a read-only view, no copy)."""
        return self.timestamps[self.user_slice(i)]

    def coords(self) -> np.ndarray:
        """All check-in coordinates stacked into one ``(n, 2)`` array."""
        return np.column_stack((self.xs, self.ys))

    def iter_user_coords(self) -> Iterator[np.ndarray]:
        """Yield each user's ``(k, 2)`` coordinate array in user order."""
        for i in range(self.n_users):
            yield self.user_coords(i)

    @classmethod
    def from_traces(cls, traces: Iterable[Sequence[CheckIn]]) -> "CheckInColumns":
        """Pack per-user ``CheckIn`` lists into columns (order preserved)."""
        xs: List[float] = []
        ys: List[float] = []
        ts: List[float] = []
        offsets: List[int] = [0]
        for trace in traces:
            for c in trace:
                xs.append(c.point.x)
                ys.append(c.point.y)
                ts.append(c.timestamp)
            offsets.append(len(xs))
        return cls(
            xs=np.asarray(xs, dtype=np.float64),
            ys=np.asarray(ys, dtype=np.float64),
            timestamps=np.asarray(ts, dtype=np.float64),
            offsets=np.asarray(offsets, dtype=np.int64),
        )

    def to_traces(self) -> List[List[CheckIn]]:
        """Materialise the per-user ``CheckIn`` lists back (exact round-trip)."""
        out: List[List[CheckIn]] = []
        for i in range(self.n_users):
            s = self.user_slice(i)
            out.append(
                [
                    CheckIn(float(t), Point(float(x), float(y)))
                    for x, y, t in zip(self.xs[s], self.ys[s], self.timestamps[s])
                ]
            )
        return out

    def arrays(self) -> Dict[str, np.ndarray]:
        """The raw arrays keyed for stage-cache storage."""
        return {
            "xs": self.xs,
            "ys": self.ys,
            "timestamps": self.timestamps,
            "offsets": self.offsets,
        }

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "CheckInColumns":
        """Rebuild from :meth:`arrays` output (e.g. a cache hit)."""
        return cls(
            xs=arrays["xs"],
            ys=arrays["ys"],
            timestamps=arrays["timestamps"],
            offsets=arrays["offsets"],
        )

    @classmethod
    def concat(cls, shards: Sequence["CheckInColumns"]) -> "CheckInColumns":
        """Stack user shards back-to-back into one CSR population.

        Offsets are rebased so shard boundaries disappear; user ``i`` of
        shard ``j`` becomes a plain user of the combined columns with its
        rows untouched.  This is the reassembly half of shard-parallel
        tier generation.
        """
        if not shards:
            return cls(
                xs=np.empty(0), ys=np.empty(0), timestamps=np.empty(0),
                offsets=np.zeros(1, dtype=np.int64),
            )
        offsets = [shards[0].offsets]
        base = shards[0].offsets[-1]
        for shard in shards[1:]:
            offsets.append(shard.offsets[1:] + base)
            base = base + shard.offsets[-1]
        return cls(
            xs=np.concatenate([s.xs for s in shards]),
            ys=np.concatenate([s.ys for s in shards]),
            timestamps=np.concatenate([s.timestamps for s in shards]),
            offsets=np.concatenate(offsets),
        )


@dataclass(frozen=True)
class PopulationColumns:
    """A synthetic population in columnar form: check-ins + true top sets.

    ``top_xs[top_offsets[i]:top_offsets[i+1]]`` are user ``i``'s
    ground-truth top locations, most frequent first — the slice the
    attack-success evaluation compares inferred locations against.
    """

    checkins: CheckInColumns
    top_xs: np.ndarray
    top_ys: np.ndarray
    top_offsets: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "top_xs", _as_float64(self.top_xs, "top_xs"))
        object.__setattr__(self, "top_ys", _as_float64(self.top_ys, "top_ys"))
        if len(self.top_xs) != len(self.top_ys):
            raise ValueError("top_xs and top_ys must have equal lengths")
        object.__setattr__(
            self, "top_offsets", _as_offsets(self.top_offsets, len(self.top_xs))
        )
        if len(self.top_offsets) != len(self.checkins.offsets):
            raise ValueError("top_offsets must cover the same users as checkins")

    @property
    def n_users(self) -> int:
        """Number of users in the population."""
        return self.checkins.n_users

    def user_true_tops(self, i: int) -> List[Point]:
        """User ``i``'s ground-truth top locations, most frequent first."""
        if not 0 <= i < self.n_users:
            raise IndexError(f"user index {i} out of range [0, {self.n_users})")
        s = slice(int(self.top_offsets[i]), int(self.top_offsets[i + 1]))
        return [
            Point(float(x), float(y)) for x, y in zip(self.top_xs[s], self.top_ys[s])
        ]

    @classmethod
    def from_users(cls, users: Iterable[object]) -> "PopulationColumns":
        """Pack users (anything with ``.trace`` and ``.true_tops``) into columns."""
        traces: List[Sequence[CheckIn]] = []
        top_xs: List[float] = []
        top_ys: List[float] = []
        top_offsets: List[int] = [0]
        for user in users:
            traces.append(user.trace)  # type: ignore[attr-defined]
            for p in user.true_tops:  # type: ignore[attr-defined]
                top_xs.append(p.x)
                top_ys.append(p.y)
            top_offsets.append(len(top_xs))
        return cls(
            checkins=CheckInColumns.from_traces(traces),
            top_xs=np.asarray(top_xs, dtype=np.float64),
            top_ys=np.asarray(top_ys, dtype=np.float64),
            top_offsets=np.asarray(top_offsets, dtype=np.int64),
        )

    def arrays(self) -> Dict[str, np.ndarray]:
        """The raw arrays keyed for stage-cache storage."""
        out = self.checkins.arrays()
        out.update(
            top_xs=self.top_xs, top_ys=self.top_ys, top_offsets=self.top_offsets
        )
        return out

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "PopulationColumns":
        """Rebuild from :meth:`arrays` output (e.g. a cache hit)."""
        return cls(
            checkins=CheckInColumns.from_arrays(arrays),
            top_xs=arrays["top_xs"],
            top_ys=arrays["top_ys"],
            top_offsets=arrays["top_offsets"],
        )

    @classmethod
    def concat(cls, shards: Sequence["PopulationColumns"]) -> "PopulationColumns":
        """Stack population shards into one (see ``CheckInColumns.concat``)."""
        if not shards:
            return cls(
                checkins=CheckInColumns.concat([]),
                top_xs=np.empty(0), top_ys=np.empty(0),
                top_offsets=np.zeros(1, dtype=np.int64),
            )
        top_offsets = [shards[0].top_offsets]
        base = shards[0].top_offsets[-1]
        for shard in shards[1:]:
            top_offsets.append(shard.top_offsets[1:] + base)
            base = base + shard.top_offsets[-1]
        return cls(
            checkins=CheckInColumns.concat([s.checkins for s in shards]),
            top_xs=np.concatenate([s.top_xs for s in shards]),
            top_ys=np.concatenate([s.top_ys for s in shards]),
            top_offsets=np.concatenate(top_offsets),
        )
