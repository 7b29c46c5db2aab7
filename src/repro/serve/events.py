"""The serve workload: a seeded check-in/bid-request event schedule.

Every event the service ingests is one user check-in that fires one LBA
bid request, laid out as a flat, columnar schedule so the whole workload
can ship to shard worker processes once (via :mod:`repro.parallel.shared`)
and per-event messages stay as small as an integer index.

A schedule is built from per-user check-in traces
(:meth:`EventSchedule.from_traces`): the global event order is the
stable timestamp-sorted merge of the traces, so the schedule is a pure
function of them.  :func:`build_schedule` generates the traces from a
:class:`ServeWorkloadConfig` — users come from the datagen mobility
models with one ``SeedSequence(entropy=seed, spawn_key=(user_index,))``
stream each — and ``repro simulate`` passes a synthetic population's
traces.  That purity is what replay mode's bit-identical digest rests
on — any shard count consumes the same schedule in the same per-user
order.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence

import numpy as np

from repro.datagen.mobility import MobilityModel, TopLocation
from repro.datagen.shanghai import STUDY_START_TS, shanghai_planar_bbox
from repro.geo.point import Point
from repro.profiles.checkin import CheckIn

__all__ = [
    "ServeWorkloadConfig",
    "ServeEvent",
    "EventSchedule",
    "build_schedule",
    "shard_of_user",
    "workload_user_ids",
]


@dataclass(frozen=True)
class ServeWorkloadConfig:
    """Knobs of the generated event stream."""

    n_users: int = 50
    n_events: int = 2_000
    n_campaigns: int = 200
    campaign_radius_m: float = 5_000.0
    seed: int = 0
    #: Event-time span of the stream.  Long enough that the default
    #: 90-day profile window rolls over at least once per user, so both
    #: serve paths (pinned top and nomadic) are exercised.
    days: float = 120.0
    start_ts: float = STUDY_START_TS

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {self.n_users}")
        if self.n_events < 1:
            raise ValueError(f"n_events must be >= 1, got {self.n_events}")
        if self.n_campaigns < 0:
            raise ValueError("n_campaigns must be non-negative")
        if self.days <= 0:
            raise ValueError("days must be positive")


@dataclass(frozen=True)
class ServeEvent:
    """One ingested event: a user check-in that triggers a bid request."""

    seq: int
    user_index: int
    user_id: str
    timestamp: float
    x: float
    y: float

    @property
    def point(self) -> Point:
        """The true (raw) check-in location — edge-side only."""
        return Point(self.x, self.y)


def shard_of_user(user_id: str, n_shards: int) -> int:
    """The shard owning ``user_id``'s actor: ``stable_hash(user_id) % n_shards``.

    CRC32 rather than builtin ``hash`` because the routing must be stable
    across processes and runs (``PYTHONHASHSEED`` randomizes ``str``
    hashing per interpreter), and the shard assignment is part of the
    service's documented contract.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return zlib.crc32(user_id.encode("utf-8")) % n_shards


class EventSchedule:
    """The whole workload as columnar arrays plus the user-id table.

    Columns are parallel over the global event sequence (row ``i`` is the
    event with ``seq == i``, timestamp-ordered).  The ``payload`` dict is
    what ships to shard workers — large arrays travel via shared memory.
    """

    def __init__(
        self,
        user_ids: List[str],
        user_index: np.ndarray,
        timestamps: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
    ) -> None:
        n = len(user_index)
        if not (len(timestamps) == len(xs) == len(ys) == n):
            raise ValueError("schedule columns must have equal length")
        self.user_ids = list(user_ids)
        self.user_index = np.ascontiguousarray(user_index, dtype=np.int64)
        self.timestamps = np.ascontiguousarray(timestamps, dtype=np.float64)
        self.xs = np.ascontiguousarray(xs, dtype=np.float64)
        self.ys = np.ascontiguousarray(ys, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.user_index)

    @property
    def n_users(self) -> int:
        """Number of distinct users in the schedule."""
        return len(self.user_ids)

    def event(self, seq: int) -> ServeEvent:
        """Materialise one event row as a :class:`ServeEvent`."""
        idx = int(self.user_index[seq])
        return ServeEvent(
            seq=seq,
            user_index=idx,
            user_id=self.user_ids[idx],
            timestamp=float(self.timestamps[seq]),
            x=float(self.xs[seq]),
            y=float(self.ys[seq]),
        )

    def shard_assignment(self, n_shards: int) -> np.ndarray:
        """Per-event owning shard (``int64``), via :func:`shard_of_user`."""
        user_shards = np.asarray(
            [shard_of_user(uid, n_shards) for uid in self.user_ids], dtype=np.int64
        )
        return user_shards[self.user_index]

    def payload(self) -> Dict[str, Any]:
        """The shard-transport payload tree (arrays + the user-id table)."""
        return {
            "user_ids": self.user_ids,
            "user_index": self.user_index,
            "timestamps": self.timestamps,
            "xs": self.xs,
            "ys": self.ys,
        }

    @classmethod
    def from_traces(
        cls, user_ids: Sequence[str], traces: Iterable[Sequence[CheckIn]]
    ) -> "EventSchedule":
        """Merge per-user check-in traces into one schedule.

        ``traces`` yields one trace per entry of ``user_ids`` (in that
        order; a trace may be empty).  The global order is the stable
        timestamp sort of the users' concatenated traces, so equal
        timestamps keep user order and, within a user, trace order — the
        merged schedule is reproducible even on ties.
        """
        user_idx: List[np.ndarray] = []
        ts: List[np.ndarray] = []
        xs: List[np.ndarray] = []
        ys: List[np.ndarray] = []
        for user_index, trace in enumerate(traces):
            if not trace:
                continue
            user_idx.append(np.full(len(trace), user_index, dtype=np.int64))
            ts.append(np.asarray([c.timestamp for c in trace], dtype=np.float64))
            xs.append(np.asarray([c.point.x for c in trace], dtype=np.float64))
            ys.append(np.asarray([c.point.y for c in trace], dtype=np.float64))
        if not ts:
            raise ValueError("a schedule needs at least one check-in")
        ts_col = np.concatenate(ts)
        order = np.argsort(ts_col, kind="stable")
        return cls(
            user_ids=list(user_ids),
            user_index=np.concatenate(user_idx)[order],
            timestamps=ts_col[order],
            xs=np.concatenate(xs)[order],
            ys=np.concatenate(ys)[order],
        )

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "EventSchedule":
        """Rebuild a schedule from a (possibly shm-imported) payload tree."""
        return cls(
            user_ids=list(payload["user_ids"]),
            user_index=np.asarray(payload["user_index"]),
            timestamps=np.asarray(payload["timestamps"]),
            xs=np.asarray(payload["xs"]),
            ys=np.asarray(payload["ys"]),
        )


def workload_user_ids(n_users: int) -> List[str]:
    """The canonical workload user ids, without building a schedule.

    Scenario builders need the id list (fault targets hash the user id
    to a device) before any schedule exists; this is the same format
    :func:`build_schedule` assigns, kept in one place so they cannot
    drift.
    """
    return [f"user-{i:06d}" for i in range(n_users)]


def _user_model(user_index: int, config: ServeWorkloadConfig) -> MobilityModel:
    """One user's mobility model from their private seed stream.

    Spawn-keyed per user (never sequential) so any subset of users — and
    therefore any shard layout — sees exactly the same models.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(0, user_index))
    )
    region = shanghai_planar_bbox()
    home_region = region.expand(-10_000.0)
    hx = float(rng.uniform(home_region.min_x, home_region.max_x))
    hy = float(rng.uniform(home_region.min_y, home_region.max_y))
    n_tops = int(rng.choice([1, 2, 3], p=[0.2, 0.5, 0.3]))
    anchors = [(Point(hx, hy), "home")]
    for kind, (lo, hi) in zip(("work", "other"), ((2_000.0, 12_000.0), (500.0, 5_000.0))):
        if len(anchors) >= n_tops:
            break
        radius = float(rng.uniform(lo, hi))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        anchors.append(
            (Point(hx + radius * math.cos(theta), hy + radius * math.sin(theta)), kind)
        )
    top1 = float(rng.uniform(0.55, 0.75))
    rest = np.sort(rng.dirichlet(np.ones(max(1, n_tops - 1))))[::-1] * (1.0 - top1)
    weights = np.concatenate([[top1], rest])[:n_tops]
    tops = [
        TopLocation(point=p, weight=float(w), kind=kind)
        for (p, kind), w in zip(anchors, weights / weights.sum())
    ]
    return MobilityModel(
        user_id=f"user-{user_index:06d}",  # == workload_user_ids(n)[user_index]
        top_locations=tops,
        nomadic_fraction=float(rng.uniform(0.05, 0.2)),
        region=region,
    )


def build_schedule(config: ServeWorkloadConfig) -> EventSchedule:
    """Generate the timestamp-merged event schedule for ``config``.

    Events are split as evenly as possible across users (the first
    ``n_events % n_users`` users get one extra), each user's check-ins
    are drawn from their own spawned RNG stream, and the global order is
    the stable timestamp sort of the union (:meth:`EventSchedule.from_traces`).
    """
    base, extra = divmod(config.n_events, config.n_users)

    def trace(user_index: int) -> List[CheckIn]:
        count = base + (1 if user_index < extra else 0)
        if count == 0:
            return []
        model = _user_model(user_index, config)
        trace_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(1, user_index))
        )
        return model.generate(count, config.start_ts, config.days, trace_rng)

    return EventSchedule.from_traces(
        workload_user_ids(config.n_users),
        (trace(user_index) for user_index in range(config.n_users)),
    )
