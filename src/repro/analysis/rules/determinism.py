"""Determinism rules (``DET001``–``DET004``).

Experiment outputs are archived and diffed bit-for-bit (worker-count
invariance, CI smoke runs), so any wall-clock read, unordered
iteration, or salted hash that feeds results breaks reproducibility.  Timing
*measurement* via ``time.perf_counter`` is deliberately allowed — it
measures, it does not feed data.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.engine import FileContext, Finding, Rule

__all__ = [
    "WallClockCall",
    "SetIterationOrder",
    "UnsortedDirectoryListing",
    "BuiltinHashCall",
]

#: Wall-clock reads that leak the run's start time into results.
WALL_CLOCK_ORIGINS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Order-sensitive consumers a set must not be fed into directly.
ORDER_SENSITIVE_BUILTINS = frozenset({"list", "tuple", "sum", "enumerate"})

#: Directory-listing calls whose order is filesystem-dependent.
LISTING_ORIGINS = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)

#: Path-object methods with filesystem-dependent order.
LISTING_METHODS = frozenset({"iterdir", "rglob"})


class WallClockCall(Rule):
    """``DET001``: wall-clock reads in result-producing code."""

    id = "DET001"
    name = "wall-clock read"
    rationale = (
        "time.time()/datetime.now() make output depend on when the run "
        "started, so archived results stop being comparable; simulations "
        "must take timestamps from their inputs (see repro.edge.clock)."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag resolved wall-clock calls in src-role files."""
        if ctx.role != "src":
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = ctx.resolve(node.func)
            if origin in WALL_CLOCK_ORIGINS:
                yield self.finding(
                    ctx,
                    node,
                    f"'{origin}()' reads the wall clock; thread simulated or "
                    "input-derived time instead (time.perf_counter is fine "
                    "for measuring durations)",
                )


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class SetIterationOrder(Rule):
    """``DET002``: iterating a set where element order reaches results."""

    id = "DET002"
    name = "order-sensitive iteration over a set"
    rationale = (
        "Set iteration order depends on insertion history and hash "
        "randomisation of str keys; feeding it into lists, sums, or loops "
        "makes figure output irreproducible.  Wrap in sorted(...)."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag set expressions consumed by order-sensitive constructs."""
        if ctx.role != "src":
            return
        for node in ast.walk(ctx.tree):
            target: Optional[ast.expr] = None
            if isinstance(node, (ast.For, ast.AsyncFor)) and _is_set_expr(node.iter):
                target = node.iter
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                for gen in node.generators:
                    if _is_set_expr(gen.iter):
                        target = gen.iter
                        break
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ORDER_SENSITIVE_BUILTINS
                and node.args
                and _is_set_expr(node.args[0])
            ):
                target = node.args[0]
            if target is not None:
                yield self.finding(
                    ctx,
                    target,
                    "iteration order over a set is not deterministic; wrap "
                    "the set in sorted(...) before it feeds results",
                )


class UnsortedDirectoryListing(Rule):
    """``DET003``: directory listings consumed without ``sorted(...)``."""

    id = "DET003"
    name = "unsorted directory listing"
    rationale = (
        "os.listdir/glob return entries in filesystem order, which differs "
        "across machines and runs; batch experiment loaders must sort."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag listing calls whose direct consumer is not ``sorted``."""
        if ctx.role != "src":
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = ctx.resolve(node.func)
            is_listing = origin in LISTING_ORIGINS
            if (
                not is_listing
                and isinstance(node.func, ast.Attribute)
                and origin is None
                and node.func.attr in LISTING_METHODS
            ):
                is_listing = True
            if not is_listing:
                continue
            if any(
                isinstance(anc, ast.Call)
                and isinstance(anc.func, ast.Name)
                and anc.func.id == "sorted"
                for anc in ctx.ancestors(node)
            ):
                continue
            name = origin or f"<path>.{node.func.attr}"  # type: ignore[union-attr]
            yield self.finding(
                ctx,
                node,
                f"'{name}()' order is filesystem-dependent; wrap the call in "
                "sorted(...)",
            )


class BuiltinHashCall(Rule):
    """``DET004``: the built-in ``hash()`` outside ``__hash__``."""

    id = "DET004"
    name = "built-in hash() call"
    rationale = (
        "hash() of str/bytes is salted per interpreter (PYTHONHASHSEED), "
        "so anything it routes, buckets, or orders changes from run to "
        "run; use a stable digest such as zlib.crc32 or hashlib.  Only a "
        "__hash__ implementation may call it."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag un-shadowed ``hash(...)`` calls outside ``__hash__`` bodies."""
        if ctx.role != "src":
            return
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
                and ctx.resolve(node.func) is None
            ):
                continue
            if any(
                isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef))
                and anc.name == "__hash__"
                for anc in ctx.ancestors(node)
            ):
                continue
            yield self.finding(
                ctx,
                node,
                "built-in hash() is salted per interpreter; use a stable "
                "digest (zlib.crc32, hashlib) for anything that feeds results",
            )
