"""The load harness: run the service, report SLOs, emit bench payloads.

This is the operational face of :mod:`repro.serve`: one call —
:func:`run_service`, the documented programmatic entry point — builds
the seeded workload, runs the sharded service to completion, and wraps
the outcome in a typed :class:`ServiceReport`: the raw
:class:`~repro.serve.service.ServeResult`, the SLO reduction an operator
watches (throughput, p50/p99 pin latency from the additive-merge
``pin_seconds`` histogram, p50/p99 end-to-end latency in live mode,
drop counts), and the fleet privacy audit
(:class:`~repro.fleet.audit.FleetAudit`).  The ``repro serve`` and
``repro fleet`` CLI commands are thin wrappers over this function; the
same reduction feeds the committed ``BENCH_serve.json`` consumed by
``repro bench --compare``.  :func:`run_population` runs the same service
over a synthetic population's traces — the ``repro simulate`` pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.datagen.population import SyntheticUser
from repro.fleet.scenario import Scenario
from repro.obs import trace
from repro.obs.metrics import Snapshot, quantile_from_histogram
from repro.obs.rss import peak_rss_bytes
from repro.serve.egress import ServeResponse
from repro.serve.events import EventSchedule, ServeWorkloadConfig
from repro.serve.service import ServeConfig, ServeResult, ServeService

if TYPE_CHECKING:
    from repro.fleet.audit import FleetAudit

__all__ = [
    "ServiceReport",
    "bench_payload",
    "run_population",
    "run_service",
    "slo_report",
]


@dataclass(frozen=True)
class ServiceReport:
    """Typed report for one service run: result + SLO view + audit.

    The raw :class:`ServeResult` stays reachable as ``.result``; the
    commonly asserted fields are re-exposed as passthrough properties so
    the report can be dropped in anywhere a result was used.
    """

    result: ServeResult
    config: ServeConfig

    # -- passthrough properties (drop-in for ServeResult call sites) ----
    @property
    def digest(self) -> str:
        """SHA-256 over the canonical response encoding, in seq order."""
        return self.result.digest

    @property
    def responses(self) -> List[ServeResponse]:
        """Every response, in global ``seq`` order."""
        return self.result.responses

    @property
    def metrics(self) -> Snapshot:
        """The merged fleet metrics snapshot."""
        return self.result.metrics

    def metrics_digest(self) -> str:
        """SHA-256 over the canonical metrics encoding."""
        return self.result.metrics_digest()

    @property
    def audit_epsilon(self) -> float:
        """Ledger charges folded in gauge merge order (epsilon)."""
        return self.result.audit_epsilon

    @property
    def audit_delta(self) -> float:
        """Ledger charges folded in gauge merge order (delta)."""
        return self.result.audit_delta

    @property
    def ledger_epsilon(self) -> float:
        """Epsilon still on surviving actors' ledgers at drain."""
        return self.result.ledger_epsilon

    @property
    def ledger_delta(self) -> float:
        """Delta still on surviving actors' ledgers at drain."""
        return self.result.ledger_delta

    @property
    def ledger_spends(self) -> int:
        """Ledger entries recorded across surviving actors."""
        return self.result.ledger_spends

    @property
    def enqueued(self) -> int:
        """Events admitted to the ingress queues."""
        return self.result.enqueued

    @property
    def dropped(self) -> int:
        """Events shed by backpressure (live mode only)."""
        return self.result.dropped

    @property
    def processed(self) -> int:
        """Events actually served by actors."""
        return self.result.processed

    @property
    def n_actors(self) -> int:
        """User actors alive at drain time."""
        return self.result.n_actors

    @property
    def wall_seconds(self) -> float:
        """Wall clock of the whole run."""
        return self.result.wall_seconds

    @property
    def backend(self) -> str:
        """Execution backend used: ``"inline"`` or ``"process"``."""
        return self.result.backend

    @property
    def shard_stats(self) -> List[Dict[str, Any]]:
        """Per-shard queue/batch/actor statistics."""
        return self.result.shard_stats

    # -- the typed report surface ---------------------------------------
    @property
    def slo(self) -> Dict[str, Any]:
        """The operator's one-look SLO view (see :func:`slo_report`)."""
        return slo_report(self.result)

    @property
    def audit(self) -> "FleetAudit":
        """The three-way privacy-budget reconciliation for this run."""
        from repro.fleet.audit import audit_fleet

        return audit_fleet(self.result)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able report: SLO snapshot plus the audit block."""
        payload = self.slo
        payload["audit"] = self.audit.to_dict()
        if self.config.scenario is not None:
            payload["scenario"] = self.config.scenario.name
            payload["scenario_hash"] = self.config.scenario.content_hash()
        return payload


def run_service(
    n_users: int = 50,
    n_events: int = 2_000,
    n_campaigns: int = 200,
    seed: int = 0,
    n_shards: int = 2,
    queue_capacity: int = 256,
    batch_max: int = 32,
    qps: float = 0.0,
    replay: bool = False,
    use_processes: bool = True,
    ledger_max_epsilon: Optional[float] = None,
    work_sleep_s: float = 0.0,
    producer_burst: int = 1,
    scenario: Optional[Scenario] = None,
    checkpoint_dir: Optional[str] = None,
    dispatch_timeout_s: Optional[float] = None,
) -> ServiceReport:
    """Build the workload, run the service end to end, report.

    This is the supported programmatic entry point: it returns a typed
    :class:`ServiceReport` (digest, SLO snapshot, privacy audit) and
    never prints.  Pass a :class:`~repro.fleet.scenario.Scenario` to run
    the same workload under deterministic fault injection.
    """
    workload = ServeWorkloadConfig(
        n_users=n_users,
        n_events=n_events,
        n_campaigns=n_campaigns,
        seed=seed,
    )
    config = ServeConfig(
        workload=workload,
        n_shards=n_shards,
        queue_capacity=queue_capacity,
        batch_max=batch_max,
        qps=qps,
        replay=replay,
        use_processes=use_processes,
        ledger_max_epsilon=ledger_max_epsilon,
        work_sleep_s=work_sleep_s,
        producer_burst=producer_burst,
        scenario=scenario,
        checkpoint_dir=checkpoint_dir,
        dispatch_timeout_s=dispatch_timeout_s,
    )
    result = ServeService(config).run()
    return ServiceReport(result=result, config=config)


def run_population(
    users: Sequence[SyntheticUser],
    n_edges: int = 4,
    n_campaigns: int = 200,
    seed: int = 0,
) -> ServiceReport:
    """Replay a synthetic population's traces through the edge service.

    Every check-in becomes one ad request; users are routed to
    ``n_edges`` edge devices (shards) by the stable crc32 of their id,
    and each user's state lives in one actor with its own spawn-keyed
    RNG stream.  The run is inline replay, so the responses — and every
    number derived from them — depend only on ``seed`` and the traces,
    never on ``n_edges`` or the interpreter's hash salt.
    """
    schedule = EventSchedule.from_traces(
        [u.user_id for u in users], (u.trace for u in users)
    )
    config = ServeConfig(
        workload=ServeWorkloadConfig(
            n_users=len(users),
            n_events=len(schedule),
            n_campaigns=n_campaigns,
            seed=seed,
        ),
        n_shards=n_edges,
        replay=True,
        use_processes=False,
    )
    with trace.span("simulate", users=len(users), edges=n_edges):
        result = ServeService(config, schedule=schedule).run()
    return ServiceReport(result=result, config=config)


def _histogram(result: ServeResult, name: str) -> Dict[str, Any]:
    data = result.metrics.get("histograms", {}).get(name, {})
    return data if isinstance(data, dict) else {}


def slo_report(result: ServeResult) -> Dict[str, Any]:
    """The operator's one-look view of a finished run."""
    pin = _histogram(result, "edge.obfuscation.pin_seconds")
    handle = _histogram(result, "serve.handle_seconds")
    e2e = _histogram(result, "serve.e2e_seconds")
    gauges = result.metrics.get("gauges", {})
    qps_achieved = (
        result.processed / result.wall_seconds if result.wall_seconds > 0 else 0.0
    )
    return {
        "processed": result.processed,
        "enqueued": result.enqueued,
        "dropped": result.dropped,
        "n_actors": result.n_actors,
        "backend": result.backend,
        "wall_seconds": result.wall_seconds,
        "qps_achieved": qps_achieved,
        "pin_p50_s": quantile_from_histogram(pin, 0.50),
        "pin_p99_s": quantile_from_histogram(pin, 0.99),
        "handle_p50_s": quantile_from_histogram(handle, 0.50),
        "handle_p99_s": quantile_from_histogram(handle, 0.99),
        "e2e_p50_s": quantile_from_histogram(e2e, 0.50),
        "e2e_p99_s": quantile_from_histogram(e2e, 0.99),
        "epsilon_spent": gauges.get("privacy.epsilon_spent", 0.0),
        "delta_spent": gauges.get("privacy.delta_spent", 0.0),
        "audit_epsilon": result.audit_epsilon,
        "audit_delta": result.audit_delta,
        "ledger_spends": result.ledger_spends,
        # Read at report time in the parent (RUSAGE_CHILDREN covers reaped
        # shard processes), never folded into the shard metric registries —
        # metrics_digest must stay invariant to shard count.
        "peak_rss_bytes": peak_rss_bytes(include_children=True),
        "response_digest": result.digest,
        "metrics_digest": result.metrics_digest(),
    }


def bench_payload(result: ServeResult, config: ServeConfig) -> Dict[str, Any]:
    """A ``BENCH_serve.json`` payload for ``repro bench --compare``.

    ``stage_seconds`` carries the latency quantiles so the regression
    gate watches the SLOs, not just the wall clock.
    """
    report = slo_report(result)
    notes: List[str] = [
        f"backend={result.backend}",
        f"shards={config.n_shards}",
        f"replay={config.replay}",
        f"qps_achieved={report['qps_achieved']:.0f}",
        f"dropped={result.dropped}",
    ]
    return {
        "experiment_id": "serve",
        "title": "repro.serve: sharded streaming edge service",
        "wall_seconds": result.wall_seconds,
        "workers": config.n_shards,
        "scale": {
            "name": "serve-smoke",
            "n_users": config.workload.n_users,
            "n_events": config.workload.n_events,
            "n_campaigns": config.workload.n_campaigns,
            "seed": config.workload.seed,
        },
        "stage_seconds": {
            "pin_p50": report["pin_p50_s"],
            "pin_p99": report["pin_p99_s"],
            "handle_p50": report["handle_p50_s"],
            "handle_p99": report["handle_p99_s"],
            "e2e_p50": report["e2e_p50_s"],
            "e2e_p99": report["e2e_p99_s"],
        },
        "cache": None,
        "rows": [
            {
                "processed": result.processed,
                "enqueued": result.enqueued,
                "dropped": result.dropped,
                "qps_achieved": report["qps_achieved"],
                "epsilon_spent": report["epsilon_spent"],
                "delta_spent": report["delta_spent"],
            }
        ],
        "notes": notes,
    }
