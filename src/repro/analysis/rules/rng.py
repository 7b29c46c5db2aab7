"""RNG-discipline rules (``RNG001``–``RNG004``).

Every stochastic path in this repo must thread an explicit
:class:`numpy.random.Generator` (or a seed that constructs one) so that
``repro.parallel.parallel_map`` stays bit-identical for any worker
count.  Global/legacy RNG state breaks that contract silently.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.analysis.engine import FileContext, Finding, Rule, dotted_chain

__all__ = [
    "LegacyNumpyRandomCall",
    "StdlibRandomCall",
    "UnseededDefaultRng",
    "NonLocalRngSampling",
]

#: Samplers/state mutators on numpy's *legacy* global RandomState.
LEGACY_NP_SAMPLERS = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "standard_normal",
        "exponential",
        "poisson",
        "binomial",
        "rayleigh",
        "laplace",
        "lognormal",
        "gumbel",
        "beta",
        "gamma",
        "multivariate_normal",
    }
)

#: Stochastic entry points of the stdlib ``random`` module.
STDLIB_RANDOM_FUNCS = frozenset(
    {
        "seed",
        "random",
        "uniform",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "betavariate",
        "gammavariate",
        "triangular",
    }
)

#: Instance methods that draw from a Generator-like object.
GENERATOR_SAMPLER_METHODS = frozenset(
    {
        "random",
        "uniform",
        "integers",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "standard_normal",
        "exponential",
        "poisson",
        "binomial",
        "rayleigh",
        "laplace",
        "lognormal",
        "gumbel",
        "beta",
        "gamma",
    }
)


def _iter_calls(ctx: FileContext) -> Iterator[ast.Call]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            yield node


class LegacyNumpyRandomCall(Rule):
    """``RNG001``: sampling via numpy's legacy module-level RandomState."""

    id = "RNG001"
    name = "legacy numpy.random module-level sampler"
    rationale = (
        "Module-level numpy.random.* samplers share hidden global state, so "
        "results depend on call order across the whole process; parallel_map's "
        "worker-count invariance requires explicit Generators."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag every resolved ``numpy.random.<sampler>()`` call."""
        for call in _iter_calls(ctx):
            origin = ctx.resolve(call.func)
            if origin is None or not origin.startswith("numpy.random."):
                continue
            tail = origin.rsplit(".", 1)[-1]
            if tail in LEGACY_NP_SAMPLERS:
                yield self.finding(
                    ctx,
                    call,
                    f"call to legacy global sampler '{origin}'; draw from an "
                    "explicit np.random.Generator threaded through the caller",
                )


class StdlibRandomCall(Rule):
    """``RNG002``: use of the stdlib ``random`` module's global state."""

    id = "RNG002"
    name = "stdlib random.* call"
    rationale = (
        "The stdlib random module is process-global and unseedable per task, "
        "so it cannot reproduce results across worker counts or reruns."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag every resolved stdlib ``random.<func>()`` call."""
        for call in _iter_calls(ctx):
            origin = ctx.resolve(call.func)
            if origin is None:
                continue
            if origin.startswith("random.") and origin.split(".")[1] in STDLIB_RANDOM_FUNCS:
                yield self.finding(
                    ctx,
                    call,
                    f"call to stdlib '{origin}'; use an explicit "
                    "np.random.Generator instead",
                )


class UnseededDefaultRng(Rule):
    """``RNG003``: ``default_rng()`` with no seed outside test code."""

    id = "RNG003"
    name = "unseeded default_rng()"
    rationale = (
        "An unseeded Generator draws OS entropy, so two runs of the same "
        "experiment diverge; library code must accept a seeded fallback."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag argument-less ``default_rng()`` calls in src-role files."""
        if ctx.role != "src":
            return
        for call in _iter_calls(ctx):
            if call.args or call.keywords:
                continue
            origin = ctx.resolve(call.func)
            is_hit = origin is not None and origin.endswith(".default_rng")
            if not is_hit and isinstance(call.func, ast.Name):
                is_hit = call.func.id == "default_rng"
            if is_hit:
                yield self.finding(
                    ctx,
                    call,
                    "default_rng() without a seed draws nondeterministic OS "
                    "entropy; pass a seed or an explicit Generator",
                )


class NonLocalRngSampling(Rule):
    """``RNG004``: sampling from an RNG that was not threaded in explicitly.

    A ``<receiver>.uniform(...)``-style draw is fine when the receiver is
    a parameter, ``self``/``cls`` state, or a Generator constructed in the
    same function; drawing from a module-global or closure RNG hides the
    stochastic dependency from callers and from ``parallel_map``.
    """

    id = "RNG004"
    name = "sampling from a non-local RNG"
    rationale = (
        "Public sampling paths must accept an explicit rng/seed parameter; "
        "module-global Generators make the call graph's randomness invisible."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag sampler-method calls whose receiver is not locally bound."""
        if ctx.role != "src":
            return
        for call in _iter_calls(ctx):
            func = call.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in GENERATOR_SAMPLER_METHODS:
                continue
            chain = dotted_chain(func)
            if chain is None:
                continue
            root = chain[0]
            if root in ("self", "cls"):
                continue
            if ctx.imports.resolve(chain) is not None:
                continue  # module attribute access; RNG001/RNG002 territory
            if self._bound_in_enclosing_scope(ctx, call, root):
                continue
            yield self.finding(
                ctx,
                call,
                f"'{'.'.join(chain)}' samples from an RNG that is neither a "
                "parameter nor constructed locally; thread an explicit "
                "np.random.Generator through this function",
            )

    @staticmethod
    def _bound_in_enclosing_scope(
        ctx: FileContext, node: ast.AST, root: str
    ) -> bool:
        """Is ``root`` a parameter or local binding of any enclosing function?"""
        for anc in ctx.ancestors(node):
            if not isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if root in _parameter_names(anc.args):
                return True
            if not isinstance(anc, ast.Lambda) and root in _local_bindings(anc):
                return True
        return False


def _parameter_names(args: ast.arguments) -> Set[str]:
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def _local_bindings(func: ast.AST) -> Set[str]:
    """Names assigned anywhere inside ``func`` (approximate local scope)."""
    bound: Set[str] = set()
    for node in ast.walk(func):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
            targets = [node.target]
        elif isinstance(node, ast.For):
            targets = [node.target]
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            targets = [node.optional_vars]
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name):
                    bound.add(leaf.id)
    return bound
