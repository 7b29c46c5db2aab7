"""``repro.serve``: the always-on streaming edge service.

The batch experiment drivers replay traces as function calls; this
package runs the same privacy machinery as a *service*: an asyncio event
loop ingests a check-in/bid-request event stream, routes every event to
the per-user actor that owns that user's edge state (obfuscation table,
pin state, privacy ledger), and shards the actors by a stable hash of
the user id across worker processes.  Bounded ingress queues give the
service explicit backpressure; a seeded schedule plus virtual time give
it a bit-identical replay mode; the :mod:`repro.obs` metrics it emits
while running are live SLO metrics (throughput, p50/p99 pin and
end-to-end latency, fleet-wide epsilon/delta spend).

See ``docs/serving.md`` for the architecture and the replay recipe.
"""

from repro.serve.actor import EdgeConfig, UserActor
from repro.serve.egress import (
    ServeResponse,
    TrafficSummary,
    attack_egress,
    encode_response,
    response_digest,
)
from repro.serve.events import (
    EventSchedule,
    ServeEvent,
    ServeWorkloadConfig,
    build_schedule,
    shard_of_user,
)
from repro.serve.harness import (
    ServiceReport,
    bench_payload,
    run_population,
    run_service,
    slo_report,
)
from repro.serve.ingress import BoundedIngressQueue
from repro.serve.service import ServeConfig, ServeResult, ServeService
from repro.serve.shard import ShardSpec, ShardState

__all__ = [
    "BoundedIngressQueue",
    "EdgeConfig",
    "EventSchedule",
    "ServeConfig",
    "ServeEvent",
    "ServeResponse",
    "ServeResult",
    "ServeService",
    "ServeWorkloadConfig",
    "ServiceReport",
    "ShardSpec",
    "ShardState",
    "TrafficSummary",
    "UserActor",
    "attack_egress",
    "bench_payload",
    "build_schedule",
    "encode_response",
    "response_digest",
    "run_population",
    "run_service",
    "shard_of_user",
    "slo_report",
]
