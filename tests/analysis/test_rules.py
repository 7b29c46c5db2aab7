"""Per-rule tests: each bad fixture trips exactly its rule; clean.py trips none."""

from pathlib import Path

import pytest

from repro.analysis import analyze_source
from repro.analysis.rules import all_rules, rules_by_id

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture file -> (rule id, expected number of findings under role="src").
EXPECTATIONS = {
    "bad_rng_legacy.py": ("RNG001", 2),
    "bad_rng_stdlib.py": ("RNG002", 2),
    "bad_rng_unseeded.py": ("RNG003", 2),
    "bad_rng_nonlocal.py": ("RNG004", 1),
    "bad_budget_primitive.py": ("BUD001", 1),
    "bad_budget_redraw.py": ("BUD002", 1),
    "bad_det_clock.py": ("DET001", 2),
    "bad_det_set.py": ("DET002", 2),
    "bad_det_listing.py": ("DET003", 2),
    "bad_float_eq.py": ("FLT001", 2),
    "bad_mutable_default.py": ("MUT001", 2),
    "bad_docstring.py": ("DOC001", 1),
    "bad_annotations.py": ("DOC002", 2),
    "bad_perf_scalar_loop.py": ("PERF001", 2),
    "bad_perf_csr_loop.py": ("PERF002", 2),
    "bad_perf_materialize.py": ("PERF003", 2),
    "bad_salted_hash.py": ("DET004", 2),
}

#: Fixtures whose rule only applies inside a specific package get a
#: synthetic module path (analyze_source derives the module from it).
MODULE_PATHS = {
    "bad_perf_csr_loop.py": Path("src/repro/experiments/bad_perf_csr_loop.py"),
    "bad_perf_materialize.py": Path(
        "src/repro/experiments/bad_perf_materialize.py"
    ),
}


def _analyze(name, rules, role="src"):
    path = FIXTURES / name
    return analyze_source(
        path.read_text(), MODULE_PATHS.get(name, path), rules, role=role
    )


def test_every_rule_has_a_fixture():
    covered = {rule_id for rule_id, _ in EXPECTATIONS.values()}
    assert covered == set(rules_by_id()), "each rule needs a bad_* fixture"


@pytest.mark.parametrize(("fixture", "expected"), sorted(EXPECTATIONS.items()))
def test_bad_fixture_trips_its_rule(fixture, expected):
    rule_id, count = expected
    rule = rules_by_id()[rule_id]
    findings, _ = _analyze(fixture, [rule])
    assert len(findings) == count
    assert all(f.rule == rule_id for f in findings)
    assert all(f.line > 0 and f.col > 0 for f in findings)


@pytest.mark.parametrize("fixture", sorted(EXPECTATIONS))
def test_bad_fixtures_are_single_issue(fixture):
    """A fixture must not trip unrelated rules — keeps diagnoses precise."""
    expected_rule, _ = EXPECTATIONS[fixture]
    findings, _ = _analyze(fixture, all_rules())
    assert {f.rule for f in findings} == {expected_rule}


def test_clean_fixture_is_clean_under_all_rules():
    findings, n_suppressed = _analyze("clean.py", all_rules())
    assert findings == []
    assert n_suppressed == 0


@pytest.mark.parametrize(
    "fixture",
    [
        "bad_rng_unseeded.py",
        "bad_rng_nonlocal.py",
        "bad_budget_redraw.py",
        "bad_det_clock.py",
        "bad_salted_hash.py",
        "bad_float_eq.py",
        "bad_docstring.py",
    ],
)
def test_src_only_rules_relax_for_test_role(fixture):
    """Stochastic/doc discipline is deliberately relaxed in test code."""
    rule_id, _ = EXPECTATIONS[fixture]
    rule = rules_by_id()[rule_id]
    findings, _ = _analyze(fixture, [rule], role="test")
    assert findings == []


def test_mutable_default_applies_to_tests_too():
    """MUT001 is a correctness bug everywhere, including test code."""
    rule = rules_by_id()["MUT001"]
    findings, _ = _analyze("bad_mutable_default.py", [rule], role="test")
    assert len(findings) == 2


def test_rule_catalogue_metadata():
    rules = all_rules()
    ids = [r.id for r in rules]
    assert len(ids) == len(set(ids)), "rule ids must be unique"
    assert ids == sorted(ids), "all_rules() must be deterministic (sorted by id)"
    assert len(ids) >= 6, "ISSUE requires at least six repo-specific rules"
    for rule in rules:
        assert rule.name, rule.id
        assert rule.rationale, rule.id


def test_budget_rules_exempt_sanctioned_modules():
    src = FIXTURES.joinpath("bad_budget_primitive.py").read_text()
    rule = rules_by_id()["BUD001"]
    findings, _ = analyze_source(
        src, Path("src/repro/core/mechanism.py"), [rule], role="src"
    )
    assert findings == [], "repro.core may call noise primitives directly"


def test_perf002_only_applies_to_experiment_modules():
    """The kernels themselves loop over offsets by design (RNG streams)."""
    src = FIXTURES.joinpath("bad_perf_csr_loop.py").read_text()
    rule = rules_by_id()["PERF002"]
    findings, _ = analyze_source(
        src, Path("src/repro/kernels/gaussian.py"), [rule], role="src"
    )
    assert findings == []


def test_det003_accepts_sorted_wrapper():
    src = (
        "import os\n"
        "def load(root: str) -> list:\n"
        "    return sorted(n for n in os.listdir(root))\n"
    )
    rule = rules_by_id()["DET003"]
    findings, _ = analyze_source(src, Path("x.py"), [rule], role="src")
    assert findings == []


def test_det004_exempts_hash_dunder_and_shadowed_names():
    src = (
        "from stable import hash\n"
        "class Key:\n"
        "    def __hash__(self) -> int:\n"
        "        return hash((1, 2))\n"
        "def route(uid: str) -> int:\n"
        "    return hash(uid)\n"
    )
    rule = rules_by_id()["DET004"]
    findings, _ = analyze_source(src, Path("x.py"), [rule], role="src")
    assert findings == []


def test_det004_flags_hash_nested_in_a_regular_method():
    src = (
        "class Router:\n"
        "    def __hash__(self) -> int:\n"
        "        return 0\n"
        "    def route(self, uid: str) -> int:\n"
        "        return hash(uid) % 4\n"
    )
    rule = rules_by_id()["DET004"]
    findings, _ = analyze_source(src, Path("x.py"), [rule], role="src")
    assert [(f.rule, f.line) for f in findings] == [("DET004", 5)]


def test_perf003_only_applies_to_experiment_modules():
    """Kernels and the data plane copy columns deliberately (canonicalise)."""
    src = FIXTURES.joinpath("bad_perf_materialize.py").read_text()
    rule = rules_by_id()["PERF003"]
    findings, _ = analyze_source(
        src, Path("src/repro/kernels/profiles.py"), [rule], role="src"
    )
    assert findings == []
