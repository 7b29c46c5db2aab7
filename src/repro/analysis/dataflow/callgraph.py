"""Call-graph construction over a loaded :class:`Project`.

Resolution covers the shapes the repo actually uses:

* direct calls to module-level functions, followed through import
  aliases and package ``__init__`` re-exports;
* constructor calls (``UserActor(...)`` resolves to ``__init__`` and
  records the constructed class);
* method calls where the receiver type is inferable — from a local
  ``x = ClassName(...)`` assignment, a parameter annotation (protocol /
  ABC dispatch expands to every override, so ``mechanism.obfuscate``
  with ``mechanism: LPPM`` reaches every mechanism), or a
  ``self.attr`` whose type ``__init__`` pinned;
* the ``parallel_map(worker_fn, items, payload=...)`` indirection: the
  first argument becomes a call edge and the site is marked so the
  taint engine can map ``items``/``payload`` onto worker parameters.

Every :class:`ast.Call` in every function body gets a :class:`CallSite`
(possibly with no resolved callees); the taint engine looks sites up by
node identity while walking statements.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.dataflow.policy import FlowPolicy, default_policy
from repro.analysis.dataflow.project import ClassInfo, FunctionInfo, Project

__all__ = ["CallSite", "CallGraph"]


@dataclass
class CallSite:
    """One ``ast.Call`` inside a function body, resolved as far as possible."""

    caller: str
    node: ast.Call
    #: Dotted source text of the callee (``np.save``, ``cache.store``)
    #: when the callee is a name/attribute chain, else None.
    dotted: Optional[str]
    #: Attribute name for method-style calls (``store`` in ``c.store()``).
    attr: Optional[str]
    #: Resolved project function qnames this call may dispatch to.
    callees: List[str] = field(default_factory=list)
    #: Class qname when the call constructs a project class.
    constructed: Optional[str] = None
    #: Inferred receiver class qname for method calls, when known.
    receiver_type: Optional[str] = None
    #: Whether this is a ``parallel_map``-family fan-out call.
    is_parallel_map: bool = False
    #: Worker-function qnames for fan-out calls.
    workers: List[str] = field(default_factory=list)

    @property
    def line(self) -> int:
        """Source line of the call."""
        return self.node.lineno


def _dotted_of(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


class _BodyWalker(ast.NodeVisitor):
    """Collects every Call in a function body without entering nested defs."""

    def __init__(self) -> None:
        self.calls: List[ast.Call] = []
        self._depth = 0

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if self._depth == 0:
            self._depth += 1
            self.generic_visit(node)
            self._depth -= 1
        # nested defs are separate functions; their decorators/defaults
        # still belong to this scope
        else:
            for dec in node.decorator_list:
                self.visit(dec)
            for default in list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]:
                self.visit(default)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for dec in node.decorator_list:
            self.visit(dec)
        for base in node.bases:
            self.visit(base)

    def visit_Call(self, node: ast.Call) -> None:
        self.calls.append(node)
        self.generic_visit(node)


def body_calls(fn: FunctionInfo) -> List[ast.Call]:
    """Every call expression in ``fn``'s own body (nested defs excluded)."""
    walker = _BodyWalker()
    walker.visit(fn.node)  # type: ignore[arg-type]
    return walker.calls


def local_types(project: Project, fn: FunctionInfo) -> Dict[str, str]:
    """Variable name -> class qname, inferred inside one function.

    Sources of type facts: parameter annotations, ``x = ClassName(...)``
    assignments, ``x = self.attr`` where ``__init__`` pinned the
    attribute's type, and ``x = call()`` where the callee's return
    annotation resolves to a project class.  Two passes let simple
    chains (``client = self.client_for(uid); r = client.request_ad(c)``)
    resolve regardless of AST walk order.
    """
    env: Dict[str, str] = {}
    ctx = fn.ctx
    args = getattr(fn.node, "args", None)
    if args is not None:
        for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            resolved = project._resolve_annotation(a.annotation, ctx)
            if resolved is not None:
                env[a.arg] = resolved
    owner = project.classes.get(fn.class_qname) if fn.class_qname else None
    assigns = [
        node
        for node in ast.walk(fn.node)  # type: ignore[arg-type]
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
    ]
    loops = [
        node
        for node in ast.walk(fn.node)  # type: ignore[arg-type]
        if isinstance(node, (ast.For, ast.AsyncFor))
    ]
    for _ in range(2):
        for node in assigns:
            target = node.targets[0]
            assert isinstance(target, ast.Name)
            typ = _value_type(project, fn, owner, node.value, env)
            if typ is not None:
                env[target.id] = typ
        for loop in loops:
            _loop_target_type(project, fn, owner, loop, env)
    return env


def _loop_target_type(
    project: Project,
    fn: FunctionInfo,
    owner: Optional["ClassInfo"],
    loop: ast.stmt,
    env: Dict[str, str],
) -> None:
    """Bind a loop variable's type from the iterable's element annotation.

    ``for entry in profile.top(5)`` types ``entry`` when ``top``'s return
    annotation is a recognised container; ``enumerate(...)`` unwraps to
    the second tuple element.
    """
    target = getattr(loop, "target", None)
    it = getattr(loop, "iter", None)
    if (
        isinstance(it, ast.Call)
        and _dotted_of(it.func) == "enumerate"
        and it.args
    ):
        it = it.args[0]
        if isinstance(target, ast.Tuple) and len(target.elts) == 2:
            target = target.elts[1]
        else:
            return
    if not isinstance(target, ast.Name) or not isinstance(it, ast.Call):
        return
    callee = _call_callee(project, fn, owner, it, env)
    if callee is None:
        return
    elem = project._element_class(getattr(callee.node, "returns", None), callee.ctx)
    if elem is not None:
        env[target.id] = elem


def _value_type(
    project: Project,
    fn: FunctionInfo,
    owner: Optional["ClassInfo"],
    value: ast.AST,
    env: Dict[str, str],
) -> Optional[str]:
    """The project-class type of an assigned value, when inferable."""
    ctx = fn.ctx
    if isinstance(value, ast.Name):
        return env.get(value.id)
    if isinstance(value, ast.IfExp):
        return _value_type(project, fn, owner, value.body, env)
    if (
        isinstance(value, ast.Attribute)
        and isinstance(value.value, ast.Name)
        and value.value.id == "self"
        and owner is not None
    ):
        return owner.attr_types.get(value.attr)
    if not isinstance(value, ast.Call):
        return None
    name = _dotted_of(value.func)
    if name is not None:
        resolved = project.resolve_name(name, ctx)
        if resolved is not None and resolved in project.classes:
            return resolved
    callee = _call_callee(project, fn, owner, value, env)
    if callee is None:
        return None
    returns = getattr(callee.node, "returns", None)
    return project._resolve_annotation(returns, callee.ctx)


def _call_callee(
    project: Project,
    fn: FunctionInfo,
    owner: Optional["ClassInfo"],
    value: ast.Call,
    env: Dict[str, str],
) -> Optional[FunctionInfo]:
    """The project function a call expression dispatches to, when inferable."""
    ctx = fn.ctx
    name = _dotted_of(value.func)
    if name is not None:
        resolved = project.resolve_name(name, ctx)
        if resolved is not None and resolved in project.functions:
            return project.functions[resolved]
    if isinstance(value.func, ast.Attribute):
        recv: Optional[str] = None
        base = value.func.value
        if isinstance(base, ast.Name):
            if base.id == "self" and fn.class_qname is not None:
                recv = fn.class_qname
            else:
                recv = env.get(base.id)
        elif (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
            and owner is not None
        ):
            recv = owner.attr_types.get(base.attr)
        elif isinstance(base, ast.Call):
            # Constructor-chained receiver: ProfilingAttack().build_profile().
            base_name = _dotted_of(base.func)
            if base_name is not None:
                resolved_base = project.resolve_name(base_name, ctx)
                if resolved_base is not None and resolved_base in project.classes:
                    recv = resolved_base
        if recv is not None:
            method = project.find_method(recv, value.func.attr)
            if method is not None:
                return project.functions.get(method)
    return None


class CallGraph:
    """Call sites and edges for every function in a project."""

    def __init__(self, project: Project, policy: Optional[FlowPolicy] = None) -> None:
        self.project = project
        self.policy = policy or default_policy()
        #: caller qname -> its call sites, in source order.
        self.sites: Dict[str, List[CallSite]] = {}
        #: id(ast.Call) -> resolved site, for lookup while walking bodies.
        self.by_node: Dict[int, CallSite] = {}
        #: caller qname -> callee qnames (deduplicated, sorted).
        self.edges: Dict[str, List[str]] = {}
        #: callee qname -> caller qnames.
        self.reverse_edges: Dict[str, List[str]] = {}
        #: caller qname -> inferred local variable types (name -> class).
        self.local_env: Dict[str, Dict[str, str]] = {}

    @classmethod
    def build(cls, project: Project, policy: Optional[FlowPolicy] = None) -> "CallGraph":
        """Resolve every call site in every project function."""
        graph = cls(project, policy)
        for fn in project.functions.values():
            graph._build_function(fn)
        for caller, sites in graph.sites.items():
            callees = sorted(
                {q for site in sites for q in list(site.callees) + list(site.workers)}
            )
            graph.edges[caller] = callees
            for callee in callees:
                graph.reverse_edges.setdefault(callee, []).append(caller)
        return graph

    def _build_function(self, fn: FunctionInfo) -> None:
        env = local_types(self.project, fn)
        self.local_env[fn.qname] = env
        sites: List[CallSite] = []
        for call in body_calls(fn):
            site = self._resolve_call(fn, call, env)
            sites.append(site)
            self.by_node[id(call)] = site
        self.sites[fn.qname] = sites

    def _resolve_call(
        self, fn: FunctionInfo, call: ast.Call, env: Dict[str, str]
    ) -> CallSite:
        project = self.project
        dotted = _dotted_of(call.func)
        attr = call.func.attr if isinstance(call.func, ast.Attribute) else None
        site = CallSite(caller=fn.qname, node=call, dotted=dotted, attr=attr)

        resolved: Optional[str] = None
        if dotted is not None:
            resolved = project.resolve_name(dotted, fn.ctx)
            if resolved is None and "." not in dotted:
                # A nested function defined in this scope.
                local = f"{fn.qname}.{dotted}"
                if local in project.functions:
                    resolved = local
        if resolved is not None:
            if resolved in project.classes:
                site.constructed = resolved
                init = project.find_method(resolved, "__init__")
                if init is not None:
                    site.callees.append(init)
            elif resolved in project.functions:
                site.callees.append(resolved)

        # Method call with an inferable receiver type.
        if not site.callees and isinstance(call.func, ast.Attribute):
            receiver_type = self._receiver_type(fn, call.func.value, env)
            if receiver_type is not None:
                site.receiver_type = receiver_type
                dispatch = project.methods_with_overrides(receiver_type, call.func.attr)
                site.callees.extend(dispatch)

        # parallel_map(worker_fn, items, payload=...) indirection.
        if any(self.policy.is_parallel_map(q) for q in site.callees):
            site.is_parallel_map = True
            if call.args:
                worker = self._resolve_fn_ref(fn, call.args[0], env)
                if worker is not None:
                    site.workers.append(worker)
        return site

    def _receiver_type(
        self, fn: FunctionInfo, receiver: ast.AST, env: Dict[str, str]
    ) -> Optional[str]:
        project = self.project
        if isinstance(receiver, ast.Name):
            if receiver.id in env:
                return env[receiver.id]
            if receiver.id == "self" and fn.class_qname is not None:
                return fn.class_qname
            return None
        if (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
        ):
            base: Optional[str] = None
            if receiver.value.id == "self" and fn.class_qname is not None:
                base = fn.class_qname
            else:
                base = env.get(receiver.value.id)
            if base is not None:
                cinfo = project.classes.get(base)
                if cinfo is not None and receiver.attr in cinfo.attr_types:
                    return cinfo.attr_types[receiver.attr]
        if isinstance(receiver, ast.Call):
            name = _dotted_of(receiver.func)
            if name is not None:
                resolved = project.resolve_name(name, fn.ctx)
                if resolved is not None and resolved in project.classes:
                    return resolved
        return None

    def _resolve_fn_ref(
        self, fn: FunctionInfo, node: ast.AST, env: Dict[str, str]
    ) -> Optional[str]:
        """Resolve a function reference passed as a value (not called)."""
        name = _dotted_of(node)
        if name is None:
            return None
        resolved = self.project.resolve_name(name, fn.ctx)
        if resolved is not None and resolved in self.project.functions:
            return resolved
        if "." not in name:
            local = f"{fn.qname}.{name}"
            if local in self.project.functions:
                return local
        return None

    # -- queries -----------------------------------------------------------

    def site_for(self, call: ast.Call) -> Optional[CallSite]:
        """The resolved site for a call node, if it was indexed."""
        return self.by_node.get(id(call))

    def callers_of(self, qname: str) -> List[str]:
        """Direct callers of ``qname``."""
        return sorted(set(self.reverse_edges.get(qname, [])))

    def reachable_from(self, roots: List[str]) -> List[str]:
        """Every function reachable from ``roots`` along call edges."""
        seen: Dict[str, bool] = {}
        stack = list(roots)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen[current] = True
            stack.extend(self.edges.get(current, []))
        return sorted(seen)

    def worker_functions(self) -> List[str]:
        """Every function used as a ``parallel_map`` worker anywhere."""
        out = {
            worker
            for sites in self.sites.values()
            for site in sites
            if site.is_parallel_map
            for worker in site.workers
        }
        return sorted(out)
