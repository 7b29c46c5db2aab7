"""Deterministic fault-injection scenarios for the edge fleet.

A :class:`Scenario` is a declarative, content-hashable program of fleet
events scheduled on the service's integer event timeline: ``at=k`` means
the event takes effect immediately before schedule event ``seq == k`` is
served (events past the end of the schedule take effect during the
drain).  Scheduling on the *global event sequence* — never on wall time
or on execution shards — is what makes a scenario bit-reproducible for
any ``--shards N``: a user's events land on one shard in the same order
regardless of the shard count, so the faults interleave with the
workload identically everywhere.

Faults target *logical devices*, not execution shards: users are mapped
onto ``n_devices`` edge devices by the same stable hash the service uses
for shard routing, and crashes/restarts/handoffs move or destroy the
per-user actor state living on those devices.  The two network events
(:class:`NetworkPartition` / :class:`NetworkHeal`) are the exception —
they target execution shards (modulo the run's shard count) and are
digest-neutral by construction: a partitioned shard checkpoints and
continues inline, bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Type, Union

__all__ = [
    "DeviceCrash",
    "DeviceRestart",
    "UserHandoff",
    "NetworkPartition",
    "NetworkHeal",
    "SlowShard",
    "FleetEvent",
    "Scenario",
    "device_of",
    "churn_scenario",
    "builtin_scenario",
    "BUILTIN_SCENARIOS",
]


def device_of(user_id: str, n_devices: int) -> int:
    """The logical edge device serving ``user_id`` (stable hash routing).

    The same CRC-32 routing the service uses for shards, so device
    membership is a pure function of the user id — never of the run.
    """
    if n_devices < 1:
        raise ValueError(f"n_devices must be >= 1, got {n_devices}")
    return zlib.crc32(user_id.encode("utf-8")) % n_devices


@dataclass(frozen=True)
class DeviceCrash:
    """Device ``device`` fails before event ``at``.

    With ``persist_tables=True`` the device's durable state (profile
    windows, obfuscation tables, ledgers, RNG streams) survives in its
    checkpoint store and a later :class:`DeviceRestart` resumes
    bit-identically.  With ``persist_tables=False`` the state is
    destroyed: the lost privacy budget is surfaced on the
    ``ledger.lost_epsilon``/``ledger.lost_delta`` gauges (never silently
    dropped) and rebuilt actors start a new *epoch* with a fresh noise
    stream — replaying the old stream would hand the longitudinal
    attacker the exact draws it already observed.
    """

    at: int
    device: int
    persist_tables: bool = True
    kind: str = field(default="device_crash", init=False, repr=False)


@dataclass(frozen=True)
class DeviceRestart:
    """Device ``device`` comes back before event ``at``.

    Users whose state was persisted are restored (metered on the
    ``fleet.recovery_seconds`` histogram); users whose state was lost
    get fresh actors lazily, on their next event.
    """

    at: int
    device: int
    kind: str = field(default="device_restart", init=False, repr=False)


@dataclass(frozen=True)
class UserHandoff:
    """User ``user`` roams from their current device onto ``to_device``.

    The user's full edge state makes a snapshot/restore round trip
    through the checkpoint store; the user inherits the target device's
    health (a handoff onto a crashed device parks the state until that
    device restarts).  ``from_device`` is optional documentation — when
    set, scenario validation checks it against the user's actual device
    at that point in the program.
    """

    at: int
    user: str
    to_device: int
    from_device: Union[int, None] = None
    kind: str = field(default="user_handoff", init=False, repr=False)


@dataclass(frozen=True)
class NetworkPartition:
    """Execution shard ``shard % n_shards`` is cut off before event ``at``.

    The service checkpoints the shard's backend and degrades it to
    inline execution in the parent — serving continues, bit-identically,
    because the checkpoint carries every actor's RNG state and the
    shard's virtual clock.
    """

    at: int
    shard: int
    kind: str = field(default="network_partition", init=False, repr=False)


@dataclass(frozen=True)
class NetworkHeal:
    """The partition on ``shard % n_shards`` heals before event ``at``.

    A degraded process backend forks a new worker that adopts the live
    inline shard and rejoins; an inline run just counts the event.
    """

    at: int
    shard: int
    kind: str = field(default="network_heal", init=False, repr=False)


@dataclass(frozen=True)
class SlowShard:
    """Device ``device`` turns slow: extra latency per served event.

    The latency is injected deterministically — whole virtual ticks in
    replay mode, a real sleep live — and persists until the device next
    restarts.
    """

    at: int
    device: int
    latency_s: float = 0.005
    kind: str = field(default="slow_shard", init=False, repr=False)


#: Every concrete scenario event type.
FleetEvent = Union[
    DeviceCrash, DeviceRestart, UserHandoff, NetworkPartition, NetworkHeal, SlowShard
]

_EVENT_TYPES: Dict[str, Type[Any]] = {
    "device_crash": DeviceCrash,
    "device_restart": DeviceRestart,
    "user_handoff": UserHandoff,
    "network_partition": NetworkPartition,
    "network_heal": NetworkHeal,
    "slow_shard": SlowShard,
}


def _event_to_dict(event: FleetEvent) -> Dict[str, Any]:
    data = asdict(event)
    data["kind"] = event.kind
    return data


def _event_from_dict(data: Mapping[str, Any]) -> FleetEvent:
    payload = dict(data)
    kind = payload.pop("kind", None)
    if kind not in _EVENT_TYPES:
        raise ValueError(f"unknown fleet event kind: {kind!r}")
    event: FleetEvent = _EVENT_TYPES[kind](**payload)
    return event


@dataclass(frozen=True)
class Scenario:
    """A named, content-hashable fault program over ``n_devices`` devices.

    The event list is kept in authoring order; events are *applied* in
    stable ``(at, position)`` order, so two events at the same tick take
    effect in the order they were written (a crash immediately followed
    by a restart at the same ``at`` is a pure checkpoint/restore round
    trip that serves every event).
    """

    name: str
    n_devices: int
    events: Tuple[FleetEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.n_devices < 1:
            raise ValueError(f"n_devices must be >= 1, got {self.n_devices}")
        for event in self.events:
            if event.at < 0:
                raise ValueError(f"event at must be >= 0, got {event.at}")
            device = getattr(event, "device", None)
            if device is not None and not 0 <= device < self.n_devices:
                raise ValueError(
                    f"device {device} out of range for {self.n_devices} devices"
                )
            to_device = getattr(event, "to_device", None)
            if to_device is not None and not 0 <= to_device < self.n_devices:
                raise ValueError(
                    f"to_device {to_device} out of range for "
                    f"{self.n_devices} devices"
                )

    # -- canonical form ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The canonical JSON-able form (kind-tagged event dicts)."""
        return {
            "name": self.name,
            "n_devices": self.n_devices,
            "events": [_event_to_dict(e) for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Build a scenario from :meth:`to_dict`-shaped data."""
        return cls(
            name=str(data["name"]),
            n_devices=int(data["n_devices"]),
            events=tuple(_event_from_dict(e) for e in data.get("events", [])),
        )

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, no whitespace — hash input."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse a scenario from a JSON document."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str) -> "Scenario":
        """Load a scenario from a YAML or JSON file.

        YAML is tried first when the parser is importable (it is a
        superset of JSON, so ``.json`` files load either way); without
        PyYAML the file must be JSON.
        """
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            import yaml
        except ImportError:
            return cls.from_json(text)
        return cls.from_dict(yaml.safe_load(text))

    def content_hash(self) -> str:
        """SHA-256 of the canonical JSON — the scenario's stable identity.

        Two scenarios hash equal iff they schedule the same events on
        the same devices, independent of authoring format (YAML/JSON/
        Python) and of any run-time knob (shards, backend, batch size).
        """
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    # -- introspection ----------------------------------------------------

    def shard_events(self) -> List[FleetEvent]:
        """The device-level events, in stable ``(at, position)`` order."""
        indexed = [
            (event.at, position, event)
            for position, event in enumerate(self.events)
            if not isinstance(event, (NetworkPartition, NetworkHeal))
        ]
        return [event for _, _, event in sorted(indexed, key=lambda t: t[:2])]

    def network_events(self) -> List[FleetEvent]:
        """The partition/heal events, in stable ``(at, position)`` order."""
        indexed = [
            (event.at, position, event)
            for position, event in enumerate(self.events)
            if isinstance(event, (NetworkPartition, NetworkHeal))
        ]
        return [event for _, _, event in sorted(indexed, key=lambda t: t[:2])]


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def churn_scenario(
    n_events: int,
    user_ids: Sequence[str],
    n_devices: int = 4,
    churn: float = 0.10,
    persist_fraction: float = 0.75,
    seed: int = 0,
    slow_latency_s: float = 0.002,
    name: str = "churn",
) -> Scenario:
    """A reproducible churn program: crash/restart cycles plus roaming.

    Roughly ``churn * n_devices`` crash/restart pairs are spread evenly
    over the event timeline (``persist_fraction`` of them persist their
    tables), one user per cycle roams to the next device, one device
    turns slow mid-run, and one shard takes a partition/heal round trip.
    Everything is a pure function of the arguments — no run-time
    randomness — so the scenario hash pins the whole program.
    """
    if n_events < 1:
        raise ValueError("n_events must be >= 1")
    if not user_ids:
        raise ValueError("user_ids must be non-empty")
    if not 0.0 <= churn <= 1.0:
        raise ValueError(f"churn must be in [0, 1], got {churn}")
    cycles = max(1, round(churn * n_devices))
    events: List[FleetEvent] = []
    users = list(user_ids)
    span = max(1, n_events // (cycles + 1))
    for cycle in range(cycles):
        device = (seed + cycle) % n_devices
        crash_at = min(n_events - 1, (cycle + 1) * span)
        restart_at = min(n_events, crash_at + max(1, span // 3))
        if persist_fraction >= 1.0:
            persist = True
        else:
            lossy_every = max(
                1, round(1.0 / max(1.0 - persist_fraction, 1e-9))
            )
            persist = (cycle % lossy_every) != (lossy_every - 1)
        events.append(
            DeviceCrash(at=crash_at, device=device, persist_tables=persist)
        )
        events.append(DeviceRestart(at=restart_at, device=device))
        roamer = users[(seed + cycle) % len(users)]
        events.append(
            UserHandoff(
                at=min(n_events, restart_at + 1),
                user=roamer,
                to_device=(device_of(roamer, n_devices) + 1 + cycle) % n_devices,
            )
        )
    events.append(
        SlowShard(at=n_events // 2, device=seed % n_devices, latency_s=slow_latency_s)
    )
    events.append(NetworkPartition(at=n_events // 3, shard=seed % max(2, n_devices)))
    events.append(
        NetworkHeal(at=(2 * n_events) // 3, shard=seed % max(2, n_devices))
    )
    return Scenario(name=name, n_devices=n_devices, events=tuple(events))


def builtin_scenario(name: str, n_events: int, user_ids: Sequence[str]) -> Scenario:
    """Instantiate a named builtin scenario for a concrete workload."""
    try:
        builder = BUILTIN_SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_SCENARIOS))
        raise ValueError(f"unknown builtin scenario {name!r} (known: {known})")
    return builder(n_events, user_ids)


def _churn10(n_events: int, user_ids: Sequence[str]) -> Scenario:
    return churn_scenario(
        n_events, user_ids, n_devices=4, churn=0.10, seed=0, name="churn10"
    )


def _churn25(n_events: int, user_ids: Sequence[str]) -> Scenario:
    return churn_scenario(
        n_events, user_ids, n_devices=8, churn=0.25, seed=1, name="churn25"
    )


def _lossy_crash(n_events: int, user_ids: Sequence[str]) -> Scenario:
    """One unpersisted crash mid-run: the lost-budget accounting demo."""
    return Scenario(
        name="lossy-crash",
        n_devices=2,
        events=(
            DeviceCrash(at=n_events // 2, device=0, persist_tables=False),
            DeviceRestart(at=n_events // 2 + max(1, n_events // 10), device=0),
        ),
    )


#: Builtin scenario builders, keyed by CLI name.  Each takes
#: ``(n_events, user_ids)`` so the same name adapts to any workload while
#: staying a pure function of it.
BUILTIN_SCENARIOS = {
    "churn10": _churn10,
    "churn25": _churn25,
    "lossy-crash": _lossy_crash,
}
