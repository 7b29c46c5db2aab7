"""Performance rules (``PERF001``–``PERF003``).

The columnar data plane gives every hot primitive a vectorised batch
entry point (``obfuscate_batch``, ``select_index_batch``,
``posterior_weights_array``, and ``user_uniforms`` for per-user RNG
streams).  Driving those
primitives one element at a time from a Python loop forfeits the batch
speedup and is almost always an accident — the loop body pays Point
boxing and numpy dispatch per element.  One level up, the population
kernels in :mod:`repro.kernels` subsume whole per-user loops over CSR
shards, so experiment workers that still slice user ranges one at a
time are leaving the same speedup on the table.  Justified scalar loops
(RNG call-order contracts, batch-API fallback paths, deliberately kept
per-user reference modes) belong in the baseline or under a suppression
comment with the reason.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator

from repro.analysis.engine import FileContext, Finding, Rule

__all__ = ["ScalarCallInLoop", "PerUserCsrLoop", "ShardMaterialization"]

#: Per-element entry point -> the batch API that replaces it in a loop.
BATCH_ALTERNATIVES: Dict[str, str] = {
    "obfuscate": "obfuscate_batch",
    "select_index": "select_index_batch",
    "posterior_weights": "posterior_weights_array",
    "user_rng": "repro.kernels.gaussian.user_uniforms",
}

#: Entries that are module-level functions, so bare-Name calls count.
_FUNCTION_ENTRIES = frozenset({"posterior_weights", "user_rng"})

_LOOP_NODES = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


class ScalarCallInLoop(Rule):
    """``PERF001``: per-element hot-path call in a loop with a batch API.

    Flags ``.obfuscate()``, ``.select_index()`` and ``posterior_weights``
    calls under a loop: each has a vectorised batch twin that amortises
    dispatch over the whole array.  ``user_rng`` under a loop builds a
    ``SeedSequence`` and a ``PCG64`` per user; ``user_uniforms`` seeds a
    whole chunk's streams in one array pass and returns the same bytes.
    Loops that *must* stay scalar (to preserve an RNG call order, or as
    the fallback when the duck-typed batch API is absent) are justified
    sites — baseline them or suppress with a reason.
    """

    id = "PERF001"
    name = "per-element hot-path call inside a loop"
    rationale = (
        "obfuscate/select_index/posterior_weights/user_rng all have "
        "vectorised batch APIs; calling them per element from a Python "
        "loop pays boxing, numpy dispatch or per-user RNG seeding per item "
        "and dominates the experiment pipelines' wall clock."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag batched-API candidates called per element under a loop."""
        if ctx.role != "src":
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                tail = func.attr
            elif isinstance(func, ast.Name):
                tail = func.id
            else:
                continue
            if tail not in BATCH_ALTERNATIVES:
                continue
            # Only Name calls to the module-level functions count;
            # .obfuscate/.select_index are method calls on a mechanism or
            # selector, so a bare Name of those is some unrelated local.
            if isinstance(func, ast.Name) and tail not in _FUNCTION_ENTRIES:
                continue
            if not any(isinstance(anc, _LOOP_NODES) for anc in ctx.ancestors(node)):
                continue
            yield self.finding(
                ctx,
                node,
                f"'{tail}' called per element inside a loop; use "
                f"{BATCH_ALTERNATIVES[tail]} over the whole array (or "
                "baseline/suppress with the reason the loop must stay "
                "scalar)",
            )


#: Per-user CSR accessors whose presence under a loop marks user-at-a-time
#: iteration over a columnar shard.
CSR_USER_ACCESSORS = frozenset(
    {"user_coords", "user_slice", "user_true_tops", "user_timestamps"}
)


class PerUserCsrLoop(Rule):
    """``PERF002``: per-user loop over a CSR shard in an experiment driver.

    Flags loops in ``repro.experiments`` that touch CSR rows one user at
    a time — per-user accessor calls (``user_coords``/``user_slice``/...)
    or ``*offsets[...]`` subscripts under a loop.  The population kernels
    in :mod:`repro.kernels` process whole shards in single array passes;
    a per-user python loop in a chunk worker re-introduces the scaling
    wall Table II measures.  Deliberate per-user paths (the table2
    ``mode="loop"`` reference, attacks that are inherently per-user)
    are justified sites — baseline them or suppress with the reason.
    """

    id = "PERF002"
    name = "per-user CSR loop in an experiment driver"
    rationale = (
        "Experiment chunk workers should hand whole CSR shards to the "
        "population kernels (repro.kernels); slicing one user per loop "
        "iteration pays python dispatch per user and dominates wall "
        "clock beyond ~10k users."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag per-user CSR row access under a loop in experiments."""
        if ctx.role != "src":
            return
        if ctx.module is None or not ctx.module.startswith("repro.experiments"):
            return
        for node in ast.walk(ctx.tree):
            accessor = None
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in CSR_USER_ACCESSORS
            ):
                accessor = f".{node.func.attr}()"
            elif isinstance(node, ast.Subscript):
                value = node.value
                base = None
                if isinstance(value, ast.Name):
                    base = value.id
                elif isinstance(value, ast.Attribute):
                    base = value.attr
                if base is not None and base.endswith("offsets"):
                    accessor = f"{base}[...]"
            if accessor is None:
                continue
            if not any(isinstance(anc, _LOOP_NODES) for anc in ctx.ancestors(node)):
                continue
            yield self.finding(
                ctx,
                node,
                f"per-user CSR access '{accessor}' inside a loop; process "
                "the whole shard with a population kernel from "
                "repro.kernels (or baseline/suppress with the reason this "
                "path must stay per-user)",
            )


#: CSR shard column names: materializing a whole one onto the heap in a
#: driver defeats the out-of-core serving path at exactly the tier sizes
#: it exists for.
SHARD_COLUMN_NAMES = frozenset(
    {"xs", "ys", "timestamps", "offsets", "top_xs", "top_ys", "top_offsets"}
)

#: ``np.<name>(column)`` calls that copy their argument onto the heap.
NUMPY_MATERIALIZERS = frozenset({"array", "asarray", "ascontiguousarray", "copy"})


def _terminal_name(node: ast.AST) -> "str | None":
    """The trailing identifier of ``xs`` / ``ck.xs`` / ``pop.checkins.xs``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class ShardMaterialization(Rule):
    """``PERF003``: whole-shard heap materialization in an experiment driver.

    Flags ``np.asarray``/``np.array``/``np.ascontiguousarray``/``np.copy``
    calls (and ``.copy()`` method calls) whose argument is a CSR shard
    column (``xs``/``ys``/``timestamps``/``offsets``/``top_*``) inside
    ``repro.experiments``.  Columns may be memmap-backed views served out
    of core; copying one materializes the entire shard on the heap, which
    re-introduces the peak-RSS wall the mmap plane removes and silently
    breaks the flat-memory contract at metro-1M scale.  Kernels should
    consume the views in place.  Sites that genuinely need a heap copy
    (e.g. digesting a small derived array) are justified — baseline them
    or suppress with the reason.
    """

    id = "PERF003"
    name = "whole-shard materialization of a CSR column"
    rationale = (
        "Experiment drivers receive CSR columns that may be memmap-backed "
        "views; np.asarray/.copy() on one copies the whole shard onto the "
        "heap, defeating the out-of-core plane's flat peak-RSS contract "
        "at large tiers."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag heap copies of CSR shard columns in experiment modules."""
        if ctx.role != "src":
            return
        if ctx.module is None or not ctx.module.startswith("repro.experiments"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            column = None
            how = None
            if (
                isinstance(func, ast.Attribute)
                and func.attr in NUMPY_MATERIALIZERS
                and isinstance(func.value, ast.Name)
                and func.value.id == "np"
                and node.args
            ):
                column = _terminal_name(node.args[0])
                how = f"np.{func.attr}"
            elif isinstance(func, ast.Attribute) and func.attr == "copy":
                column = _terminal_name(func.value)
                how = ".copy()"
            if column not in SHARD_COLUMN_NAMES:
                continue
            yield self.finding(
                ctx,
                node,
                f"{how} materializes shard column '{column}' on the heap; "
                "consume the (possibly memmap-backed) view in place, or "
                "baseline/suppress with the reason a copy is required",
            )
