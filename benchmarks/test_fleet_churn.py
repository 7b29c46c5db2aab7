"""Robustness bench: the serve workload under 10% churn vs no faults.

Runs the ``churn10`` builtin scenario against the standard fleet
workload next to its no-fault baseline, archives the
``BENCH_fleet.json`` record the CI ``fleet-smoke`` job gates against,
and pins the acceptance criteria: churn may cost throughput (down
windows shed events) but the pin p99 must stay within 2x of the
baseline, with the budget audit bitwise clean.
"""

from conftest import RESULTS_DIR

from repro.fleet import run_fleet
from repro.obs import record as bench_record

WORKLOAD = dict(
    n_users=50, n_events=2000, n_campaigns=200, seed=0, n_shards=2
)


def test_fleet_churn(benchmark, results_dir):
    baseline = run_fleet(None, **WORKLOAD)
    faulted = benchmark.pedantic(
        lambda: run_fleet("churn10", **WORKLOAD), rounds=1, iterations=1
    )
    record = bench_record.fleet_record(faulted, baseline)
    bench_record.write(record, results_dir / record.filename)

    audit = faulted.audit
    assert audit.ok, audit
    ratio = record.stage_seconds["pin_p99_ratio"]
    assert ratio <= 2.0, f"churn pin p99 blew past 2x baseline: {ratio:.3f}"
    # Churn sheds events instead of queueing them; it must never mint
    # extra responses or budget.
    assert faulted.processed <= baseline.processed
    assert audit.gauge_epsilon <= baseline.audit.gauge_epsilon
    # The scenario hash in the record pins what was actually injected.
    assert record.workload["scenario_hash"], record.workload


def test_fleet_churn_matches_committed_shape():
    committed = bench_record.load(RESULTS_DIR / "BENCH_fleet.json")
    assert committed.experiment_id == "fleet"
    assert committed.stage_seconds["pin_p99_ratio"] <= 2.0
    assert "audit_ok=True" in committed.notes
