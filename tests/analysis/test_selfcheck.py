"""Self-check: the shipped tree must be clean against the committed baseline.

This is the same invocation CI runs; if it fails, either fix the new
finding, suppress it with a justification comment, or (for accepted
debt) regenerate the baseline with ``--write-baseline``.
"""

import json
from pathlib import Path

from repro.analysis import analyze_paths, filter_baselined, load_baseline
from repro.analysis.rules import all_rules

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / "reprolint-baseline.json"
SRC = REPO_ROOT / "src" / "repro"


def test_committed_baseline_exists_and_is_valid():
    doc = json.loads(BASELINE.read_text())
    assert doc["version"] == 1
    assert isinstance(doc["counts"], dict)


def test_src_tree_is_clean_against_committed_baseline():
    findings, files_scanned, _ = analyze_paths(
        [SRC], all_rules(), root=REPO_ROOT
    )
    new, _ = filter_baselined(findings, load_baseline(BASELINE))
    assert files_scanned > 50, "expected to scan the whole src/repro tree"
    details = "\n".join(f.format() for f in new)
    assert new == [], f"new reprolint findings (fix, suppress, or baseline):\n{details}"


def test_analysis_package_lints_itself():
    findings, files_scanned, _ = analyze_paths(
        [REPO_ROOT / "src" / "repro" / "analysis"], all_rules(), root=REPO_ROOT
    )
    assert files_scanned >= 10
    assert findings == [], "\n".join(f.format() for f in findings)


def test_bad_fixture_would_fail_the_gate():
    """End-to-end: introducing a violation makes the same gate non-zero."""
    bad = Path(__file__).parent / "fixtures" / "bad_budget_redraw.py"
    findings, _, _ = analyze_paths([bad], all_rules(), root=REPO_ROOT, role="src")
    new, _ = filter_baselined(findings, load_baseline(BASELINE))
    assert any(f.rule == "BUD002" for f in new)


def test_flow_analysis_of_src_tree_is_clean():
    """The flow rules must pass over src/repro with zero unsuppressed
    findings — every accepted release/cache site carries a justified
    inline suppression instead of a baseline entry."""
    from repro.analysis.dataflow import analyze_flow

    report = analyze_flow([SRC], root=REPO_ROOT)
    details = "\n".join(f.format() for f in report.findings)
    assert report.findings == [], f"new flow findings:\n{details}"
    assert report.n_suppressed > 0, "the justified suppressions disappeared"
    assert report.stats["modules"] > 100
    assert report.stats["fixpoint_iterations"] >= 2


def test_committed_baseline_carries_no_stale_allowance():
    """Same check as CI's --fail-on-stale: every baseline entry must be
    consumed by a live finding."""
    from repro.analysis.baseline import stale_entries

    findings, _, _ = analyze_paths([SRC], all_rules(), root=REPO_ROOT)
    stale = stale_entries(load_baseline(BASELINE), findings)
    assert stale == {}, f"stale baseline entries: {stale}"


def test_run_population_declassification_rests_on_the_edge_summaries():
    """The policy declassifies ``run_population`` because every field of
    the egress record it returns comes from a trusted edge step:

    * ``reported_x``/``reported_y`` — ``UserActor.handle_checkin``, whose
      result depends on no raw argument (only the actor's state, ``p0``)
      and which charges the ledger/accountant;
    * ``ads``/``received`` — the auction on that reported point, narrowed
      by ``filter_ads_to_aoi``, whose result is drawn from its ads
      argument (``p0``) only; the true point merely selects among them,
      on the edge, for the user's own device;
    * ``seq``/``user_index``/``path`` — ``ShardState._handle_event``
      returns nothing raw (only its own state and ``seq``), and
      ``build_response`` copies its arguments and reaches no sink.

    A new response field would need its own entry in this list."""
    import dataclasses

    from repro.analysis.dataflow.lattice import RAW
    from repro.analysis.dataflow.policy import default_policy
    from repro.analysis.dataflow.project import Project
    from repro.analysis.dataflow.taint import TaintAnalysis
    from repro.serve.egress import ServeResponse

    analysis = TaintAnalysis(Project.load([SRC], root=REPO_ROOT))
    analysis.run()
    actor = analysis.summary("repro.serve.actor.UserActor.handle_checkin")
    assert actor.returns <= {"p0"}
    assert actor.charges
    aoi = analysis.summary("repro.ads.delivery.filter_ads_to_aoi")
    assert aoi.returns <= {"p0"}
    handle = analysis.summary("repro.serve.shard.ShardState._handle_event")
    assert RAW not in handle.returns
    assert handle.returns <= {"p0", "p1"}
    build = analysis.summary("repro.serve.egress.build_response")
    assert RAW not in build.returns
    assert build.sink_params == {}
    assert [f.name for f in dataclasses.fields(ServeResponse)] == [
        "seq", "user_index", "path", "reported_x", "reported_y", "ads", "received",
    ]
    assert default_policy().is_declassifier(
        "repro.serve.harness.run_population", None
    )
