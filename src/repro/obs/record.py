"""The BENCH record: one schema and one writer for every ``BENCH_*.json``.

The pytest benches, ``repro bench``, ``repro serve --bench-json`` and
``repro fleet run --baseline --bench-json`` all archive a
:class:`BenchRecord`.  Every archive carries every field (``null`` when
not measured).  :func:`write` refuses NaN and infinity (strict JSON);
:func:`load`, which ``repro bench --compare`` reads through, rejects an
archive whose ``schema`` is missing or is not :data:`BENCH_SCHEMA`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

if TYPE_CHECKING:
    from repro.experiments.tables import ExperimentReport
    from repro.serve.harness import ServiceReport

__all__ = [
    "BENCH_SCHEMA", "BenchRecord", "fleet_record", "from_report", "load",
    "serve_record", "write",
]

#: Version of the archive layout; bump it when a field is added, removed
#: or changes meaning, and convert the committed archives once.
BENCH_SCHEMA = 1


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark run: what ran, and what it measured.

    ``workload`` describes what ran, as whoever ran it reports it: a
    driver's ``meta["workload"]``, the serve workload, or ``None`` for a
    bench that runs no scaled driver.  ``wall_seconds`` is ``None`` when
    the call was not timed.  ``stage_seconds`` and ``spans`` are the
    per-layer splits ``repro bench --compare`` gates.
    """

    experiment_id: str
    title: str
    wall_seconds: Optional[float]
    workers: Optional[int]
    workload: Optional[Dict[str, Any]]
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    cache: Optional[Dict[str, Any]] = None
    peak_rss_bytes: Optional[int] = None
    mode: Optional[str] = None
    tier: Optional[str] = None
    mmap: Optional[bool] = None
    digest: Optional[str] = None
    spans: Optional[Dict[str, Dict[str, float]]] = None

    @property
    def filename(self) -> str:
        """The archive's file name, ``BENCH_<experiment_id>.json``."""
        return f"BENCH_{self.experiment_id}.json"

    def to_dict(self) -> Dict[str, Any]:
        """The archive document: ``schema`` first, then every field."""
        return {"schema": BENCH_SCHEMA, **dataclasses.asdict(self)}


_FIELDS = frozenset(f.name for f in dataclasses.fields(BenchRecord))


def from_report(
    report: "ExperimentReport",
    wall_seconds: Optional[float],
    experiment_id: Optional[str] = None,
    spans: Optional[Dict[str, Dict[str, float]]] = None,
    peak_rss_bytes: Optional[int] = None,
) -> BenchRecord:
    """The record of one experiment driver run, read from its report meta."""
    meta = report.meta
    return BenchRecord(
        experiment_id=experiment_id or report.experiment_id,
        title=report.title,
        wall_seconds=wall_seconds,
        workers=meta.get("workers"),
        workload=meta.get("workload"),
        stage_seconds=meta.get("stage_seconds", {}),
        rows=report.rows,
        notes=report.notes,
        cache=meta.get("cache"),
        peak_rss_bytes=peak_rss_bytes,
        mode=meta.get("mode"),
        tier=meta.get("tier"),
        mmap=meta.get("mmap"),
        digest=meta.get("digest"),
        spans=spans,
    )


def _service_workload(report: "ServiceReport", name: str) -> Dict[str, Any]:
    workload = report.config.workload
    return {
        "name": name,
        "n_users": workload.n_users,
        "n_events": workload.n_events,
        "n_campaigns": workload.n_campaigns,
        "seed": workload.seed,
    }


def serve_record(report: "ServiceReport") -> BenchRecord:
    """The ``BENCH_serve.json`` record of one ``repro serve`` run.

    ``stage_seconds`` carries the latency quantiles so the regression
    gate watches the SLOs, not just the wall clock.
    """
    slo = report.slo
    config = report.config
    return BenchRecord(
        experiment_id="serve",
        title="repro.serve: sharded streaming edge service",
        wall_seconds=report.wall_seconds,
        workers=config.n_shards,
        workload=_service_workload(report, "serve-smoke"),
        stage_seconds={
            "pin_p50": slo["pin_p50_s"],
            "pin_p99": slo["pin_p99_s"],
            "handle_p50": slo["handle_p50_s"],
            "handle_p99": slo["handle_p99_s"],
            "e2e_p50": slo["e2e_p50_s"],
            "e2e_p99": slo["e2e_p99_s"],
        },
        rows=[
            {
                "processed": report.processed,
                "enqueued": report.enqueued,
                "dropped": report.dropped,
                "qps_achieved": slo["qps_achieved"],
                "epsilon_spent": slo["epsilon_spent"],
                "delta_spent": slo["delta_spent"],
            }
        ],
        notes=[
            f"backend={report.backend}",
            f"shards={config.n_shards}",
            f"replay={config.replay}",
            f"qps_achieved={slo['qps_achieved']:.0f}",
            f"dropped={report.dropped}",
        ],
    )


def fleet_record(faulted: "ServiceReport", baseline: "ServiceReport") -> BenchRecord:
    """The ``BENCH_fleet.json`` record: churn SLOs pinned to the baseline.

    ``stage_seconds`` carries both runs' pin quantiles plus their ratio,
    so ``repro bench --compare`` trips when churn degrades the p99
    relative to the no-fault baseline — not merely when wall time moves.
    """
    slo_f = faulted.slo
    slo_b = baseline.slo
    p99_ratio = (
        slo_f["pin_p99_s"] / slo_b["pin_p99_s"] if slo_b["pin_p99_s"] > 0 else 0.0
    )
    scenario = faulted.config.scenario
    counters = faulted.metrics.get("counters", {})
    audit = faulted.audit
    workload = _service_workload(faulted, "fleet-churn")
    workload["scenario_hash"] = scenario.content_hash() if scenario else None
    return BenchRecord(
        experiment_id="fleet",
        title="repro.fleet: serve under deterministic churn",
        wall_seconds=faulted.wall_seconds,
        workers=faulted.config.n_shards,
        workload=workload,
        stage_seconds={
            "pin_p50": slo_f["pin_p50_s"],
            "pin_p99": slo_f["pin_p99_s"],
            "baseline_pin_p50": slo_b["pin_p50_s"],
            "baseline_pin_p99": slo_b["pin_p99_s"],
            "pin_p99_ratio": p99_ratio,
        },
        rows=[
            {
                "processed": faulted.processed,
                "unserved": counters.get("fleet.unserved_events", 0),
                "qps_achieved": slo_f["qps_achieved"],
                "baseline_qps_achieved": slo_b["qps_achieved"],
                "epsilon_spent": audit.gauge_epsilon,
                "lost_epsilon": audit.lost_epsilon,
            }
        ],
        notes=[
            f"scenario={scenario.name if scenario else 'none'}",
            f"backend={faulted.backend}",
            f"shards={faulted.config.n_shards}",
            f"replay={faulted.config.replay}",
            f"pin_p99_ratio={p99_ratio:.3f}",
            f"crashes={counters.get('fleet.crashes', 0)}",
            f"handoffs={counters.get('fleet.handoffs', 0)}",
            f"unserved={counters.get('fleet.unserved_events', 0)}",
            f"audit_ok={audit.ok}",
        ],
    )


def write(record: BenchRecord, path: Union[str, Path]) -> Path:
    """Write ``record`` to ``path``; a NaN or infinity raises ``ValueError``
    and writes nothing."""
    text = json.dumps(record.to_dict(), indent=2, allow_nan=False) + "\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def load(path: Union[str, Path]) -> BenchRecord:
    """Read one archive; raises ``ValueError`` if it is not a strict-JSON
    record of :data:`BENCH_SCHEMA`."""

    def reject(name: str) -> Any:
        raise ValueError(f"{path}: non-finite number {name} is not JSON")

    data = json.loads(Path(path).read_text(), parse_constant=reject)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: not a BENCH record (a JSON object)")
    schema = data.pop("schema", None)
    if schema != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: BENCH schema {schema!r}, this program reads schema "
            f"{BENCH_SCHEMA}; re-record or convert the archive"
        )
    if set(data) != _FIELDS:
        raise ValueError(
            f"{path}: fields do not match BENCH schema {BENCH_SCHEMA} (missing "
            f"{sorted(_FIELDS - set(data))}, unknown {sorted(set(data) - _FIELDS)})"
        )
    return BenchRecord(**data)
