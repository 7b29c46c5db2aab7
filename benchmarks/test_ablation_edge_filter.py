"""Ablation bench: edge-side AOI ad filtering (DESIGN.md #4).

Measures the bandwidth the edge saves the device: the share of
network-returned ads that are irrelevant to the user's true area of
interest and get dropped at the edge.  Without the filter all of them
would reach the phone.
"""

from repro.datagen.population import PopulationConfig, generate_population
from repro.experiments.tables import ExperimentReport
from repro.serve import TrafficSummary, run_population


def _run() -> ExperimentReport:
    users = generate_population(PopulationConfig(n_users=10, seed=31))
    report = run_population(users, n_edges=2, n_campaigns=300, seed=8)
    traffic = TrafficSummary.from_responses(report.responses)
    rows = [
        {
            "requests": traffic.requests,
            "ads_from_network": traffic.ads_received,
            "ads_delivered": traffic.ads_delivered,
            "filtered_out": traffic.ads_received - traffic.ads_delivered,
            "relevance_ratio": traffic.relevance_ratio,
        }
    ]
    return ExperimentReport(
        experiment_id="ablation_edge_filter",
        title="bandwidth saved by edge-side AOI filtering",
        rows=rows,
        notes=[
            "without the edge filter, every irrelevant ad would reach the "
            "device (paper Section V-A, third edge role)",
        ],
    )


def test_ablation_edge_filter(benchmark, archive):
    report = benchmark.pedantic(_run, rounds=1, iterations=1)
    archive(report)
    row = report.rows[0]
    # Obfuscation necessarily retrieves some irrelevant ads...
    assert row["filtered_out"] > 0
    # ...but a solid share of traffic remains relevant.
    assert 0.2 <= row["relevance_ratio"] <= 1.0
