"""repro.obs — zero-dependency observability for the edge pipeline.

Three pieces, all off by default and costing one flag check when off:

* **tracing** (:mod:`repro.obs.trace`) — ``with span(name, **attrs):``
  context managers producing a nested span tree with monotonic timings,
  streamed to a JSON-lines trace file;
* **metrics** (:mod:`repro.obs.metrics`) — counters, gauges, and
  fixed-bucket histograms in a process-local registry with an additive
  merge protocol, aggregated deterministically across pool workers by
  :mod:`repro.parallel.pool` (bit-identical for any ``--workers`` count);
* **rendering** (:mod:`repro.obs.render`) — the ``repro obs`` summary
  table and a Prometheus-style text dump.

Benchmark archives (``BENCH_*.json``) have one schema and one writer,
:mod:`repro.obs.record`.

Typical wiring (what ``--trace PATH`` does)::

    from repro import obs

    obs.enable("run.trace.jsonl")
    try:
        with obs.span("experiment", id="fig6"):
            ...  # instrumented pipeline
    finally:
        obs.shutdown()   # appends the metrics snapshot, closes the file

Instrumented library code guards its hot-path writes::

    if obs.enabled():
        obs.get_registry().counter("cache.hits").inc()
"""

from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MaxGauge,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.rss import PEAK_RSS_METRIC, peak_rss_bytes, record_peak_rss
from repro.obs.render import (
    SpanNode,
    TraceData,
    build_span_tree,
    read_trace,
    render_prometheus,
    render_summary,
)
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    ChunkObservations,
    SpanRecord,
    absorb,
    collect,
    enable,
    enabled,
    get_registry,
    shutdown,
    span,
)

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MaxGauge",
    "MetricsRegistry",
    "merge_snapshots",
    "PEAK_RSS_METRIC",
    "peak_rss_bytes",
    "record_peak_rss",
    "SpanNode",
    "TraceData",
    "build_span_tree",
    "read_trace",
    "render_prometheus",
    "render_summary",
    "TRACE_SCHEMA_VERSION",
    "ChunkObservations",
    "SpanRecord",
    "absorb",
    "collect",
    "enable",
    "enabled",
    "get_registry",
    "shutdown",
    "span",
]
