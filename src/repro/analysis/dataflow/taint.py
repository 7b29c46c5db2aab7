"""Forward taint engine with per-function summaries.

Each function is walked flow-sensitively with an environment mapping
local names to :data:`~repro.analysis.dataflow.lattice.Taint` values.
Parameters start as their symbolic labels (``p0``, ``p1``, ...), so the
walk doubles as summary construction: a return value carrying ``{p0}``
means "returns whatever the first argument was", and a sink reached by
``{p1}`` means "parameter 1 escapes".  The interprocedural fixpoint
re-walks every function until no summary changes; everything is
monotone over a finite lattice, so it terminates.

Precision notes (deliberate, documented trade-offs):

* attribute reads inherit the receiver's taint (``pop.xs`` is as raw as
  ``pop``); ``self.attr`` stores are tracked flow-sensitively within one
  function, not across methods;
* constructed objects join their constructor arguments' taint when
  ``FlowPolicy`` keeps the default (``Wrapper(users)`` is as raw as
  ``users``);
* comparisons return clean booleans — implicit flows through branch
  conditions are out of scope;
* closures read as clean; lambdas are opaque.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.dataflow.callgraph import CallGraph, CallSite
from repro.analysis.dataflow.lattice import (
    BOTTOM,
    RAW,
    RNG,
    Taint,
    join,
    param_index,
    param_label,
    substitute,
)
from repro.analysis.dataflow.policy import FlowPolicy, default_policy
from repro.analysis.dataflow.project import FunctionInfo, Project

__all__ = [
    "Summary",
    "CallEvent",
    "FunctionEvents",
    "TaintAnalysis",
    "classify_sink",
]

Env = Dict[str, Taint]

#: Loop bodies are walked this many times so loop-carried taint settles.
_LOOP_PASSES = 2


@dataclass
class Summary:
    """Interprocedural behaviour of one function.

    ``returns`` may mix concrete labels with symbolic parameter labels;
    ``sink_params`` maps a parameter index to the sink kinds it can
    reach (``ads``/``obs``/``cache``/``io``/``report``).
    """

    returns: Taint = BOTTOM
    sink_params: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    charges: bool = False
    has_global: bool = False

    def merge(self, other: "Summary") -> "Summary":
        """Pointwise join (used to keep the fixpoint monotone)."""
        sink_params = dict(self.sink_params)
        for idx, kinds in other.sink_params.items():
            sink_params[idx] = sink_params.get(idx, frozenset()) | kinds
        return Summary(
            returns=join(self.returns, other.returns),
            sink_params=sink_params,
            charges=self.charges or other.charges,
            has_global=self.has_global or other.has_global,
        )


@dataclass
class CallEvent:
    """One evaluated call site with the taints that reached it."""

    site: CallSite
    recv: Taint = BOTTOM
    pos: List[Taint] = field(default_factory=list)
    kw: Dict[str, Taint] = field(default_factory=dict)
    #: Sink kinds this call *is* (direct classification).
    sink_kinds: FrozenSet[str] = frozenset()
    is_sanitizer: bool = False
    is_charge: bool = False
    #: RAW-carrying flows into callees whose summaries reach a sink:
    #: (callee qname, parameter name, sink kinds).
    transitive: List[Tuple[str, str, FrozenSet[str]]] = field(default_factory=list)
    #: Items/payload taint crossing a parallel_map boundary.
    parallel_boundary: Taint = BOTTOM

    @property
    def arg_join(self) -> Taint:
        """Join of every argument taint (receiver excluded)."""
        return join(*self.pos, *self.kw.values())


@dataclass
class FunctionEvents:
    """Per-function walk artifacts consumed by the flow rules."""

    calls: List[CallEvent] = field(default_factory=list)
    global_lines: List[int] = field(default_factory=list)


def _names_of(site: CallSite, fn: FunctionInfo) -> List[str]:
    """Every name a call site answers to: raw dotted, import origin, callees."""
    names: List[str] = list(site.callees)
    if site.dotted is not None:
        names.append(site.dotted)
        origin = fn.ctx.imports.resolve(site.dotted.split("."))
        if origin is not None:
            names.append(origin)
    return names


def classify_sink(site: CallSite, fn: FunctionInfo, policy: FlowPolicy) -> FrozenSet[str]:
    """The sink kinds a call site belongs to (empty when not a sink)."""
    kinds = set()
    names = _names_of(site, fn)
    for name in names:
        if any(name.startswith(p) for p in policy.ads_prefixes):
            kinds.add("ads")
        if any(name.startswith(p) for p in policy.obs_prefixes):
            kinds.add("obs")
        if name in policy.cache_store_qnames:
            kinds.add("cache")
        if name in policy.io_calls:
            kinds.add("io")
    if site.constructed is not None and site.constructed in policy.report_qnames:
        kinds.add("report")
    if site.attr is not None:
        if site.attr in policy.io_methods:
            kinds.add("io")
        if site.attr in policy.obs_methods:
            kinds.add("obs")
        if site.attr in policy.cache_store_methods and not site.callees:
            kinds.add("cache")
    return frozenset(kinds)


class _Walker:
    """Flow-sensitive walk of one function body."""

    def __init__(self, analysis: "TaintAnalysis", fn: FunctionInfo) -> None:
        self.analysis = analysis
        self.fn = fn
        self.policy = analysis.policy
        self.project = analysis.project
        self.graph = analysis.graph
        self.events = FunctionEvents()
        self.returns: Taint = BOTTOM
        self.sink_params: Dict[int, FrozenSet[str]] = {}
        self.charges = False
        self.types: Dict[str, str] = self.graph.local_env.get(fn.qname, {})
        self.sink_exempt = self.policy.sink_exempt(fn.module)

    # -- entry -------------------------------------------------------------

    def run(self) -> Tuple[Summary, FunctionEvents]:
        env: Env = {
            name: frozenset({param_label(i)})
            for i, name in enumerate(self.fn.params)
        }
        body = getattr(self.fn.node, "body", [])
        self.exec_block(body, env)
        summary = Summary(
            returns=self.returns,
            sink_params=dict(self.sink_params),
            charges=self.charges,
            has_global=bool(self.events.global_lines),
        )
        return summary, self.events

    # -- static types ------------------------------------------------------

    def _static_type(self, node: ast.expr) -> Optional[str]:
        """Best-effort class qname of an expression (or ``None``).

        Uses the call graph's per-function local type environment for
        plain names, the enclosing class for ``self``, and declared
        attribute types for ``self.attr`` / chained reads.
        """
        if isinstance(node, ast.Name):
            if node.id == "self":
                return self.fn.class_qname
            return self.types.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._static_type(node.value)
            if base is None:
                return None
            cinfo = self.project.classes.get(base)
            if cinfo is not None:
                return cinfo.attr_types.get(node.attr)
            return None
        return None

    def _loop_bindings(
        self, stmt: ast.stmt, env: Env
    ) -> List[Tuple[ast.expr, Taint]]:
        """(target, taint) pairs for a for-loop header.

        ``for i, x in enumerate(xs)`` binds ``i`` clean — enumeration
        indices count, they don't locate — and ``x`` to the taint of
        ``xs`` rather than of the opaque ``enumerate(...)`` call.
        """
        target = getattr(stmt, "target", None)
        it = getattr(stmt, "iter", None)
        assert target is not None and it is not None
        if (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "enumerate"
            and it.args
            and isinstance(target, ast.Tuple)
            and len(target.elts) == 2
        ):
            return [
                (target.elts[0], BOTTOM),
                (target.elts[1], self.eval(it.args[0], env)),
            ]
        return [(target, self.eval(it, env))]

    # -- statements --------------------------------------------------------

    def exec_block(self, stmts: List[ast.stmt], env: Env) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt, env)

    def exec_stmt(self, stmt: ast.stmt, env: Env) -> None:
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value, env)
            for target in stmt.targets:
                self.assign(target, value, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.assign(stmt.target, self.eval(stmt.value, env), env)
        elif isinstance(stmt, ast.AugAssign):
            value = self.eval(stmt.value, env)
            current = self.eval(stmt.target, env)
            self.assign(stmt.target, join(current, value), env)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.returns = join(self.returns, self.eval(stmt.value, env))
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test, env)
            then_env = dict(env)
            else_env = dict(env)
            self.exec_block(stmt.body, then_env)
            self.exec_block(stmt.orelse, else_env)
            self._merge_into(env, then_env, else_env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            bindings = self._loop_bindings(stmt, env)
            for _ in range(_LOOP_PASSES):
                for tgt, taint in bindings:
                    self.assign(tgt, taint, env)
                body_env = dict(env)
                self.exec_block(stmt.body, body_env)
                self._merge_into(env, body_env, env)
            self.exec_block(stmt.orelse, env)
        elif isinstance(stmt, ast.While):
            for _ in range(_LOOP_PASSES):
                self.eval(stmt.test, env)
                body_env = dict(env)
                self.exec_block(stmt.body, body_env)
                self._merge_into(env, body_env, env)
            self.exec_block(stmt.orelse, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                ctx_taint = self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self.assign(item.optional_vars, ctx_taint, env)
            self.exec_block(stmt.body, env)
        elif isinstance(stmt, ast.Try):
            self.exec_block(stmt.body, env)
            for handler in stmt.handlers:
                handler_env = dict(env)
                self.exec_block(handler.body, handler_env)
                self._merge_into(env, handler_env, env)
            self.exec_block(stmt.orelse, env)
            self.exec_block(stmt.finalbody, env)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc, env)
        elif isinstance(stmt, ast.Assert):
            self.eval(stmt.test, env)
            if stmt.msg is not None:
                self.eval(stmt.msg, env)
        elif isinstance(stmt, ast.Global):
            self.events.global_lines.append(stmt.lineno)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in stmt.decorator_list:
                self.eval(dec, env)
            for default in list(stmt.args.defaults) + [
                d for d in stmt.args.kw_defaults if d is not None
            ]:
                self.eval(default, env)
        elif isinstance(stmt, ast.ClassDef):
            for dec in stmt.decorator_list:
                self.eval(dec, env)
        # Pass/Break/Continue/Import/Nonlocal: nothing flows.

    @staticmethod
    def _merge_into(env: Env, a: Env, b: Env) -> None:
        merged: Env = {}
        for key in set(a) | set(b):
            merged[key] = join(a.get(key, BOTTOM), b.get(key, BOTTOM))
        env.clear()
        env.update(merged)

    def assign(self, target: ast.AST, value: Taint, env: Env) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.assign(elt, value, env)
        elif isinstance(target, ast.Starred):
            self.assign(target.value, value, env)
        elif isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name) and base.id == "self":
                env[f"self.{target.attr}"] = value
            else:
                # Weak update: the object now carries at least this taint.
                base_taint = self.eval(base, env)
                if isinstance(base, ast.Name):
                    env[base.id] = join(base_taint, value)
        elif isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Name):
                env[base.id] = join(env.get(base.id, BOTTOM), value)

    # -- expressions -------------------------------------------------------

    def eval(self, node: ast.AST, env: Env) -> Taint:
        if isinstance(node, ast.Name):
            return env.get(node.id, BOTTOM)
        if isinstance(node, ast.Constant):
            return BOTTOM
        if isinstance(node, ast.Attribute):
            recv = self.eval(node.value, env)
            base_type = self._static_type(node.value)
            if base_type is not None:
                cinfo = self.project.classes.get(base_type)
                if cinfo is not None and node.attr in cinfo.scalar_attrs:
                    return BOTTOM  # int/bool/str field: no coordinates
                prop = self.project.find_method(base_type, node.attr)
                if prop is not None:
                    prop_fn = self.project.functions.get(prop)
                    if prop_fn is not None and "property" in prop_fn.decorators:
                        if prop_fn.returns_scalar:
                            return BOTTOM
                        # A property read is a method call on the receiver.
                        summary = self.analysis.summaries.get(prop, Summary())
                        return substitute(summary.returns, [recv])
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return join(recv, env.get(f"self.{node.attr}", BOTTOM))
            return recv
        if isinstance(node, ast.Subscript):
            self.eval(node.slice, env)
            return self.eval(node.value, env)
        if isinstance(node, ast.Call):
            return self.eval_call(node, env)
        if isinstance(node, ast.BinOp):
            return join(self.eval(node.left, env), self.eval(node.right, env))
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand, env)
        if isinstance(node, ast.BoolOp):
            return join(*(self.eval(v, env) for v in node.values))
        if isinstance(node, ast.Compare):
            self.eval(node.left, env)
            for comp in node.comparators:
                self.eval(comp, env)
            return BOTTOM  # booleans carry no coordinates
        if isinstance(node, ast.IfExp):
            self.eval(node.test, env)
            return join(self.eval(node.body, env), self.eval(node.orelse, env))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return join(*(self.eval(e, env) for e in node.elts))
        if isinstance(node, ast.Dict):
            parts = [self.eval(k, env) for k in node.keys if k is not None]
            parts += [self.eval(v, env) for v in node.values]
            return join(*parts)
        if isinstance(node, ast.JoinedStr):
            return join(*(self.eval(v, env) for v in node.values))
        if isinstance(node, ast.FormattedValue):
            return self.eval(node.value, env)
        if isinstance(node, ast.Starred):
            return self.eval(node.value, env)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            comp_env = dict(env)
            for gen in node.generators:
                iter_taint = self.eval(gen.iter, comp_env)
                self.assign(gen.target, iter_taint, comp_env)
                for cond in gen.ifs:
                    self.eval(cond, comp_env)
            return self.eval(node.elt, comp_env)
        if isinstance(node, ast.DictComp):
            comp_env = dict(env)
            for gen in node.generators:
                iter_taint = self.eval(gen.iter, comp_env)
                self.assign(gen.target, iter_taint, comp_env)
                for cond in gen.ifs:
                    self.eval(cond, comp_env)
            return join(self.eval(node.key, comp_env), self.eval(node.value, comp_env))
        if isinstance(node, ast.NamedExpr):
            value = self.eval(node.value, env)
            self.assign(node.target, value, env)
            return value
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self.eval(node.value, env)
        if isinstance(node, ast.Yield):
            if node.value is not None:
                value = self.eval(node.value, env)
                self.returns = join(self.returns, value)
            return BOTTOM
        if isinstance(node, ast.Lambda):
            return BOTTOM
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self.eval(part, env)
            return BOTTOM
        return BOTTOM

    # -- calls -------------------------------------------------------------

    def eval_call(self, call: ast.Call, env: Env) -> Taint:
        policy = self.policy
        site = self.graph.site_for(call)
        if site is None:
            # A call the graph did not index (e.g. inside a lambda);
            # evaluate the pieces conservatively.
            taints = [self.eval(a, env) for a in call.args]
            taints += [self.eval(k.value, env) for k in call.keywords]
            if isinstance(call.func, (ast.Attribute, ast.Call)):
                taints.append(self.eval(call.func, env))
            return join(*taints)

        recv = BOTTOM
        if isinstance(call.func, ast.Attribute):
            recv = self.eval(call.func.value, env)
        elif not isinstance(call.func, ast.Name):
            recv = self.eval(call.func, env)

        pos = [self.eval(a, env) for a in call.args]
        kw: Dict[str, Taint] = {}
        for keyword in call.keywords:
            value = self.eval(keyword.value, env)
            kw[keyword.arg if keyword.arg is not None else "**"] = value

        names = _names_of(site, self.fn)
        event = CallEvent(
            site=site,
            recv=recv,
            pos=pos,
            kw=kw,
            sink_kinds=(
                frozenset()
                if self.sink_exempt
                else classify_sink(site, self.fn, policy)
            ),
            is_sanitizer=policy.is_sanitizer(
                site.callees[0] if site.callees else site.dotted, site.attr
            ),
            is_charge=any(policy.is_charge(n, None) for n in names)
            or policy.is_charge(None, site.attr),
        )
        self.events.calls.append(event)
        if event.is_charge:
            self.charges = True

        # Record symbolic escapes into this function's own summary.
        if event.sink_kinds:
            for label in event.arg_join:
                idx = param_index(label)
                if idx is not None:
                    self.sink_params[idx] = (
                        self.sink_params.get(idx, frozenset()) | event.sink_kinds
                    )

        # Fan-out boundary: items + payload cross process boundaries.
        if site.is_parallel_map:
            return self._eval_parallel_map(event, env)

        # Result taint, in policy-priority order.
        if event.is_sanitizer:
            return BOTTOM
        if site.constructed is None and any(policy.is_source(n) for n in names):
            return frozenset({RAW})
        if any(policy.is_rng_constructor(n) for n in names):
            return frozenset({RNG})
        if any(policy.is_rng_sanctioned(n) for n in names) or (
            policy.is_rng_sanctioned(site.attr)
        ):
            return BOTTOM
        if any(policy.is_declassifier(n, None) for n in names) or (
            policy.is_declassifier(None, site.attr)
        ):
            return BOTTOM

        results: List[Taint] = []
        resolved_any = False
        for qname in site.callees:
            callee = self.project.functions.get(qname)
            if callee is None:
                continue
            resolved_any = True
            bound = self._bind(callee, site, recv, pos, kw)
            summary = self.analysis.summaries.get(qname, Summary())
            # An int/bool/str return annotation certifies the result
            # carries no coordinates, whatever the summary says.
            if not callee.returns_scalar:
                results.append(substitute(summary.returns, bound))
            self._propagate_callee_sinks(event, qname, callee, bound)
        if site.constructed is not None:
            if self.policy_constructor_joins():
                return join(*pos, *kw.values())
            return BOTTOM
        if resolved_any:
            return join(*results) if results else BOTTOM
        # Unknown call: conservative join of receiver and arguments.  A
        # method call may also mutate its receiver (rows.append(raw)), so
        # weak-update the receiver variable with the argument taint.
        result = join(recv, *pos, *kw.values())
        if isinstance(call.func, ast.Attribute):
            base = call.func.value
            arg_taint = join(*pos, *kw.values())
            if isinstance(base, ast.Name):
                env[base.id] = join(env.get(base.id, BOTTOM), arg_taint)
            elif (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
            ):
                key = f"self.{base.attr}"
                env[key] = join(env.get(key, BOTTOM), arg_taint)
        return result

    def policy_constructor_joins(self) -> bool:
        """Whether constructed objects inherit constructor-argument taint."""
        return True

    def _eval_parallel_map(self, event: CallEvent, env: Env) -> Taint:
        site = event.site
        items = event.pos[1] if len(event.pos) > 1 else event.kw.get("items", BOTTOM)
        payload = event.kw.get("payload", BOTTOM)
        event.parallel_boundary = join(items, payload)
        results: List[Taint] = []
        for qname in site.workers:
            worker = self.project.functions.get(qname)
            if worker is None:
                continue
            bound = [BOTTOM] * len(worker.params)
            if bound:
                bound[0] = items
            payload_idx = worker.param_index("payload")
            if payload_idx is None and len(bound) > 2:
                payload_idx = 2
            if payload_idx is not None and payload_idx < len(bound):
                bound[payload_idx] = payload
            summary = self.analysis.summaries.get(qname, Summary())
            results.append(substitute(summary.returns, bound))
            self._propagate_callee_sinks(event, qname, worker, bound)
        return join(*results) if results else BOTTOM

    def _bind(
        self,
        callee: FunctionInfo,
        site: CallSite,
        recv: Taint,
        pos: List[Taint],
        kw: Dict[str, Taint],
    ) -> List[Taint]:
        bound = [BOTTOM] * len(callee.params)
        start = 0
        if site.constructed is not None or (
            callee.is_method and callee.is_classmethod
        ):
            start = 1  # self/cls carries no caller taint
        elif callee.is_method and not callee.is_staticmethod:
            if bound:
                bound[0] = recv
            start = 1
        for i, taint in enumerate(pos):
            j = start + i
            if j < len(bound):
                bound[j] = join(bound[j], taint)
        for name, taint in kw.items():
            idx = callee.param_index(name)
            if idx is not None and idx < len(bound):
                bound[idx] = join(bound[idx], taint)
        return bound

    def _propagate_callee_sinks(
        self,
        event: CallEvent,
        qname: str,
        callee: FunctionInfo,
        bound: List[Taint],
    ) -> None:
        summary = self.analysis.summaries.get(qname, Summary())
        for idx, kinds in summary.sink_params.items():
            if idx >= len(bound):
                continue
            taint = bound[idx]
            if RAW in taint:
                pname = callee.params[idx] if idx < len(callee.params) else f"arg{idx}"
                event.transitive.append((qname, pname, kinds))
            for label in taint:
                own = param_index(label)
                if own is not None:
                    self.sink_params[own] = (
                        self.sink_params.get(own, frozenset()) | kinds
                    )


class TaintAnalysis:
    """Interprocedural fixpoint over every function in a project."""

    def __init__(
        self,
        project: Project,
        graph: Optional[CallGraph] = None,
        policy: Optional[FlowPolicy] = None,
    ) -> None:
        self.project = project
        self.policy = policy or default_policy()
        self.graph = graph or CallGraph.build(project, self.policy)
        self.summaries: Dict[str, Summary] = {}
        self.events: Dict[str, FunctionEvents] = {}
        self.iterations = 0

    def run(self, max_iterations: int = 12) -> None:
        """Iterate summaries to a fixpoint, then keep the final events."""
        functions = list(self.project.functions.values())
        for iteration in range(max_iterations):
            self.iterations = iteration + 1
            changed = False
            for fn in functions:
                summary, events = _Walker(self, fn).run()
                old = self.summaries.get(fn.qname)
                merged = summary if old is None else old.merge(summary)
                if old is None or merged != old:
                    changed = True
                self.summaries[fn.qname] = merged
                self.events[fn.qname] = events
            if not changed:
                break

    def summary(self, qname: str) -> Summary:
        """The converged summary for ``qname`` (bottom if unknown)."""
        return self.summaries.get(qname, Summary())
