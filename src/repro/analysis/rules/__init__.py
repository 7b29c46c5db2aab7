"""The reprolint rule catalogue.

Rules are grouped by the invariant they protect:

* ``RNG*`` — explicit-Generator discipline (worker-count-invariant
  determinism, PR 1's ``parallel_map`` contract);
* ``BUD*`` — permanent-noise budget hygiene (paper Section V-C);
* ``DET*`` — wall-clock, iteration-order, and hash-salt determinism;
* ``FLT*`` — float-equality comparisons on coordinates/probabilities;
* ``MUT*`` — mutable default arguments;
* ``DOC*`` — docstring/annotation coverage of the public API;
* ``PERF*`` — per-element hot-path calls where a batch API exists.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.engine import Rule
from repro.analysis.rules.budget import NoisePrimitiveOutsideCore, RedrawInLoop
from repro.analysis.rules.determinism import (
    BuiltinHashCall,
    SetIterationOrder,
    UnsortedDirectoryListing,
    WallClockCall,
)
from repro.analysis.rules.docs import MissingAnnotations, MissingDocstring
from repro.analysis.rules.floats import FloatEquality
from repro.analysis.rules.mutables import MutableDefaultArgument
from repro.analysis.rules.perf import (
    PerUserCsrLoop,
    ScalarCallInLoop,
    ShardMaterialization,
)
from repro.analysis.rules.rng import (
    LegacyNumpyRandomCall,
    NonLocalRngSampling,
    StdlibRandomCall,
    UnseededDefaultRng,
)

__all__ = ["all_rules", "rules_by_id"]


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in id order."""
    rules: List[Rule] = [
        LegacyNumpyRandomCall(),
        StdlibRandomCall(),
        UnseededDefaultRng(),
        NonLocalRngSampling(),
        NoisePrimitiveOutsideCore(),
        RedrawInLoop(),
        WallClockCall(),
        SetIterationOrder(),
        UnsortedDirectoryListing(),
        BuiltinHashCall(),
        FloatEquality(),
        MutableDefaultArgument(),
        MissingDocstring(),
        MissingAnnotations(),
        ScalarCallInLoop(),
        PerUserCsrLoop(),
        ShardMaterialization(),
    ]
    return sorted(rules, key=lambda r: r.id)


def rules_by_id() -> Dict[str, Rule]:
    """Map of rule id to a fresh rule instance."""
    return {rule.id: rule for rule in all_rules()}
