"""Project-wide module loader and symbol table.

A :class:`Project` parses every Python file under the analyzed roots
into the same :class:`~repro.analysis.engine.FileContext` the syntactic
rules use, then indexes the definitions: every module, class, method,
and (nested) function gets a stable dotted *qualified name* —
``repro.serve.actor.UserActor.handle_checkin`` or
``repro.experiments.fig6_attack.run.get_pop`` — and re-exports through
package ``__init__`` files resolve transparently, so
``repro.parallel.parallel_map`` and ``repro.parallel.pool.parallel_map``
name the same function.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.engine import FileContext, iter_python_files

__all__ = ["FunctionInfo", "ClassInfo", "Project", "FunctionNode"]

#: The AST node kinds that define a function.
FunctionNode = ast.FunctionDef  # sync + async share the shape we need

#: Annotations that certify an attribute carries no coordinate data.
#: Floats are excluded on purpose: ``x_m: float`` IS a coordinate.
_SCALAR_TYPES = frozenset({"int", "bool", "str"})


def _scalar_annotation(node: Optional[ast.AST]) -> bool:
    """Whether an annotation is a plain int/bool/str (or Optional of one).

    Deliberately strict: generics like ``Dict[str, np.ndarray]`` are NOT
    scalar even though ``str`` appears in the subscript.
    """
    if node is None:
        return False
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return False
    if isinstance(node, ast.Subscript):
        outer = _dotted(node.value)
        if outer is not None and outer.split(".")[-1] == "Optional":
            return _scalar_annotation(node.slice)
        return False
    name = _dotted(node)
    return name is not None and name.split(".")[-1] in _SCALAR_TYPES


def _is_scalar_value(value: ast.AST, scalar_params: Set[str]) -> bool:
    """Whether an ``__init__`` assignment's RHS is certifiably scalar."""
    if isinstance(value, ast.Constant):
        return isinstance(value.value, (int, bool, str)) and not isinstance(
            value.value, float
        )
    if isinstance(value, ast.Name):
        return value.id in scalar_params
    return False


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qname: str
    module: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    ctx: FileContext
    #: Qualified name of the owning class for methods, else None.
    class_qname: Optional[str] = None
    #: Positional-ish parameter names (posonly + args + kwonly), in order.
    params: List[str] = field(default_factory=list)
    #: Resolved decorator names (dotted where resolvable, else the raw id).
    decorators: List[str] = field(default_factory=list)
    #: Qualified names of functions defined directly inside this one.
    nested: List[str] = field(default_factory=list)

    @property
    def name(self) -> str:
        """The bare function name."""
        return str(getattr(self.node, "name", "<lambda>"))

    @property
    def is_method(self) -> bool:
        """Whether this function is defined directly inside a class."""
        return self.class_qname is not None

    @property
    def is_classmethod(self) -> bool:
        """Whether the def carries a ``@classmethod`` decorator."""
        return "classmethod" in self.decorators

    @property
    def is_staticmethod(self) -> bool:
        """Whether the def carries a ``@staticmethod`` decorator."""
        return "staticmethod" in self.decorators

    def param_index(self, name: str) -> Optional[int]:
        """Index of parameter ``name``, or None if not a parameter."""
        try:
            return self.params.index(name)
        except ValueError:
            return None

    @property
    def returns_scalar(self) -> bool:
        """Whether the return annotation certifies an int/bool/str result."""
        return _scalar_annotation(getattr(self.node, "returns", None))


@dataclass
class ClassInfo:
    """One class definition in the project."""

    qname: str
    module: str
    node: ast.ClassDef
    ctx: FileContext
    #: Resolved base-class qualified names (project classes only).
    bases: List[str] = field(default_factory=list)
    #: Method name -> qualified name of the def on *this* class.
    methods: Dict[str, str] = field(default_factory=dict)
    #: Instance attribute name -> constructed class qname (from
    #: ``self.attr = SomeClass(...)`` / annotated ``__init__`` params).
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: Attributes whose declared type is int/bool/str — reads of these
    #: carry no coordinate information (floats are NOT scalar here:
    #: ``x_m`` is a coordinate).
    scalar_attrs: Set[str] = field(default_factory=set)

    @property
    def name(self) -> str:
        """The bare class name."""
        return self.node.name


def _param_names(node: ast.AST) -> List[str]:
    args = getattr(node, "args", None)
    if args is None:
        return []
    names = [a.arg for a in args.posonlyargs] if hasattr(args, "posonlyargs") else []
    names += [a.arg for a in args.args]
    names += [a.arg for a in args.kwonlyargs]
    return names


def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """The core dotted name of an annotation, unwrapping Optional/quotes."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        # Optional[X] / List[X] / "Optional[X]" — look inside.
        outer = _dotted(node.value)
        inner = node.slice
        if isinstance(inner, ast.Tuple):
            # Union[X, None] style: take the first non-None element.
            for elt in inner.elts:
                name = _annotation_name(elt)
                if name is not None and name != "None":
                    return name
            return None
        if outer is not None and outer.split(".")[-1] in {"Optional", "Union"}:
            return _annotation_name(inner)
        return None
    return _dotted(node)


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


#: Generic containers whose subscript names the element type.
_CONTAINER_NAMES = frozenset(
    {
        "List",
        "list",
        "Sequence",
        "Iterable",
        "Iterator",
        "Tuple",
        "tuple",
        "Set",
        "set",
        "FrozenSet",
        "frozenset",
    }
)


def _element_annotation(node: Optional[ast.AST]) -> Optional[ast.AST]:
    """The element annotation of a container annotation, if any.

    ``List[ProfileEntry]`` -> the ``ProfileEntry`` node; unwraps
    ``Optional``/``Union`` and string annotations; homogeneous
    ``Tuple[X, ...]`` yields its first element.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if not isinstance(node, ast.Subscript):
        return None
    outer = _dotted(node.value)
    if outer is None:
        return None
    tail = outer.split(".")[-1]
    inner: Optional[ast.AST] = node.slice
    if tail in {"Optional", "Union"}:
        if isinstance(inner, ast.Tuple):
            for elt in inner.elts:
                found = _element_annotation(elt)
                if found is not None:
                    return found
            return None
        return _element_annotation(inner)
    if tail not in _CONTAINER_NAMES:
        return None
    if isinstance(inner, ast.Tuple):
        inner = inner.elts[0] if inner.elts else None
    return inner


class Project:
    """Every parsed module under the analyzed roots, fully indexed."""

    def __init__(self) -> None:
        self.modules: Dict[str, FileContext] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: Method name -> qualified names of every def with that name.
        self.method_index: Dict[str, List[str]] = {}
        #: Class qname -> direct subclass qnames.
        self.subclasses: Dict[str, List[str]] = {}
        #: Files that failed to parse (path -> error message).
        self.parse_errors: Dict[str, str] = {}

    # -- loading -----------------------------------------------------------

    @classmethod
    def load(cls, paths: Iterable[Path], root: Optional[Path] = None) -> "Project":
        """Parse and index every python file under ``paths``."""
        project = cls()
        for path in iter_python_files(paths):
            source = path.read_text(encoding="utf-8")
            try:
                ctx = FileContext.build(source, path, root=root)
            except SyntaxError as exc:  # recorded, not fatal
                project.parse_errors[str(path)] = str(exc.msg)
                continue
            if ctx.module is None:
                continue
            project.modules[ctx.module] = ctx
            project._index_module(ctx)
        project._link_classes()
        return project

    def _index_module(self, ctx: FileContext) -> None:
        assert ctx.module is not None
        for stmt in ctx.tree.body:
            self._index_statement(stmt, ctx, ctx.module, None)

    def _index_statement(
        self,
        stmt: ast.stmt,
        ctx: FileContext,
        scope_qname: str,
        class_qname: Optional[str],
        parent_fn: Optional[FunctionInfo] = None,
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qname = f"{scope_qname}.{stmt.name}"
            info = FunctionInfo(
                qname=qname,
                module=ctx.module or "",
                node=stmt,
                ctx=ctx,
                class_qname=class_qname,
                params=_param_names(stmt),
                decorators=[
                    d for d in (_dotted(dec) for dec in stmt.decorator_list)
                    if d is not None
                ],
            )
            self.functions[qname] = info
            self.method_index.setdefault(stmt.name, []).append(qname)
            if parent_fn is not None:
                parent_fn.nested.append(qname)
            if class_qname is not None:
                owner = self.classes.get(class_qname)
                if owner is not None:
                    owner.methods[stmt.name] = qname
            for inner in stmt.body:
                # Nested defs are their own functions; nested classes keep
                # the enclosing function's dotted scope.
                self._index_statement(inner, ctx, qname, None, parent_fn=info)
        elif isinstance(stmt, ast.ClassDef):
            qname = f"{scope_qname}.{stmt.name}"
            cinfo = ClassInfo(qname=qname, module=ctx.module or "", node=stmt, ctx=ctx)
            self.classes[qname] = cinfo
            for inner in stmt.body:
                self._index_statement(inner, ctx, qname, qname)
            self._collect_attr_types(cinfo)
        elif isinstance(stmt, (ast.If, ast.Try)):
            # Definitions guarded by TYPE_CHECKING / version checks.
            for inner in ast.iter_child_nodes(stmt):
                if isinstance(inner, ast.stmt):
                    self._index_statement(
                        inner, ctx, scope_qname, class_qname, parent_fn
                    )

    def _collect_attr_types(self, cinfo: ClassInfo) -> None:
        """Record ``self.attr`` types visible from ``__init__``.

        Two patterns feed the map: ``self.attr = SomeClass(...)`` and
        ``self.attr = param`` where the parameter is annotated with a
        project class; dataclass field annotations on the class body are
        picked up as well.
        """
        ctx = cinfo.ctx
        for stmt in cinfo.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                resolved = self._resolve_annotation(stmt.annotation, ctx)
                if resolved is not None:
                    cinfo.attr_types[stmt.target.id] = resolved
                elif _scalar_annotation(stmt.annotation):
                    cinfo.scalar_attrs.add(stmt.target.id)
        init_q = f"{cinfo.qname}.__init__"
        init = self.functions.get(init_q)
        if init is None:
            return
        node = init.node
        param_types: Dict[str, str] = {}
        param_scalars: Set[str] = set()
        args = getattr(node, "args", None)
        if args is not None:
            for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
                resolved = self._resolve_annotation(a.annotation, ctx)
                if resolved is not None:
                    param_types[a.arg] = resolved
                elif _scalar_annotation(a.annotation):
                    param_scalars.add(a.arg)
        for sub in ast.walk(node if isinstance(node, ast.AST) else ast.Module()):
            if isinstance(sub, ast.AnnAssign):
                # Annotated assignment: ``self.attr: SomeClass = ...``
                # declares the type directly.
                target = sub.target
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    resolved = self._resolve_annotation(sub.annotation, ctx)
                    if resolved is not None:
                        cinfo.attr_types.setdefault(target.attr, resolved)
                    elif _scalar_annotation(sub.annotation):
                        cinfo.scalar_attrs.add(target.attr)
                continue
            if not isinstance(sub, ast.Assign):
                continue
            for target in sub.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    typ = self._value_type(sub.value, ctx, param_types)
                    if typ is not None:
                        cinfo.attr_types.setdefault(target.attr, typ)
                    elif _is_scalar_value(sub.value, param_scalars):
                        cinfo.scalar_attrs.add(target.attr)

    def _value_type(
        self, value: ast.AST, ctx: FileContext, param_types: Dict[str, str]
    ) -> Optional[str]:
        if isinstance(value, ast.Call):
            name = _dotted(value.func)
            if name is not None:
                resolved = self.resolve_name(name, ctx)
                if resolved is not None and resolved in self.classes:
                    return resolved
        elif isinstance(value, ast.Name):
            return param_types.get(value.id)
        elif isinstance(value, ast.IfExp):
            return self._value_type(value.body, ctx, param_types)
        return None

    def _resolve_annotation(
        self, annotation: Optional[ast.AST], ctx: FileContext
    ) -> Optional[str]:
        name = _annotation_name(annotation)
        if name is None:
            return None
        resolved = self.resolve_name(name, ctx)
        if resolved is not None and resolved in self.classes:
            return resolved
        return None

    def _element_class(
        self, annotation: Optional[ast.AST], ctx: FileContext
    ) -> Optional[str]:
        """Project class of a container annotation's elements, if any."""
        return self._resolve_annotation(_element_annotation(annotation), ctx)

    def _link_classes(self) -> None:
        for cinfo in self.classes.values():
            for base in cinfo.node.bases:
                name = _dotted(base)
                if name is None:
                    continue
                resolved = self.resolve_name(name, cinfo.ctx)
                if resolved is not None and resolved in self.classes:
                    cinfo.bases.append(resolved)
                    self.subclasses.setdefault(resolved, []).append(cinfo.qname)

    # -- resolution --------------------------------------------------------

    def resolve_name(self, dotted: str, ctx: FileContext) -> Optional[str]:
        """Resolve a dotted name used in ``ctx`` to a project qname.

        Tries, in order: a definition in the same module, an import
        binding (followed through package re-exports), and the name as an
        already-qualified path.
        """
        module = ctx.module or ""
        local = f"{module}.{dotted}"
        if local in self.functions or local in self.classes:
            return local
        head = dotted.split(".", 1)
        origin = ctx.imports.resolve(dotted.split("."))
        if origin is not None:
            resolved = self.resolve_qname(origin)
            if resolved is not None:
                return resolved
        if head[0] != dotted:
            # a.b.c where a is module-local class: Class.attr chains.
            base = f"{module}.{head[0]}"
            if base in self.classes:
                return self.resolve_qname(f"{base}.{head[1]}")
        return self.resolve_qname(dotted)

    def resolve_qname(
        self, qname: str, _seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        """Canonicalize a dotted path, following package re-exports."""
        if qname in self.functions or qname in self.classes:
            return qname
        if _seen is None:
            _seen = set()
        if qname in _seen:
            return None
        _seen.add(qname)
        if "." not in qname:
            return None
        prefix, name = qname.rsplit(".", 1)
        # Class attribute (method) lookup through a re-exported class.
        resolved_prefix = (
            prefix
            if prefix in self.modules or prefix in self.classes
            else self.resolve_qname(prefix, _seen)
        )
        if resolved_prefix is not None and resolved_prefix in self.classes:
            method = self.find_method(resolved_prefix, name)
            if method is not None:
                return method
        mod_ctx = self.modules.get(resolved_prefix or prefix)
        if mod_ctx is not None:
            direct = f"{resolved_prefix or prefix}.{name}"
            if direct in self.functions or direct in self.classes:
                return direct
            origin = mod_ctx.imports.resolve([name])
            if origin is not None:
                return self.resolve_qname(origin, _seen)
        return None

    def find_method(self, class_qname: str, method: str) -> Optional[str]:
        """The qname of ``method`` on ``class_qname`` or its project bases."""
        seen: Set[str] = set()
        queue = [class_qname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cinfo = self.classes.get(current)
            if cinfo is None:
                continue
            if method in cinfo.methods:
                return cinfo.methods[method]
            queue.extend(cinfo.bases)
        return None

    def methods_with_overrides(self, class_qname: str, method: str) -> List[str]:
        """Defs of ``method`` on the class, its bases, and all subclasses.

        This is the dispatch set for a call through a variable of declared
        type ``class_qname`` — e.g. a parameter annotated ``LPPM`` calls
        into every mechanism's ``obfuscate``.
        """
        out: List[str] = []
        base = self.find_method(class_qname, method)
        if base is not None:
            out.append(base)
        stack = list(self.subclasses.get(class_qname, []))
        seen: Set[str] = set()
        while stack:
            sub = stack.pop()
            if sub in seen:
                continue
            seen.add(sub)
            cinfo = self.classes.get(sub)
            if cinfo is not None and method in cinfo.methods:
                out.append(cinfo.methods[method])
            stack.extend(self.subclasses.get(sub, []))
        return sorted(set(out))

    def functions_in_module(self, module: str) -> List[FunctionInfo]:
        """All functions defined in ``module``, sorted by qname."""
        return sorted(
            (f for f in self.functions.values() if f.module == module),
            key=lambda f: f.qname,
        )

    def stats(self) -> Dict[str, int]:
        """Size of the loaded project, for reports."""
        return {
            "modules": len(self.modules),
            "functions": len(self.functions),
            "classes": len(self.classes),
            "parse_errors": len(self.parse_errors),
        }


def project_and_roles(
    paths: Iterable[Path], root: Optional[Path] = None
) -> Tuple[Project, Dict[str, str]]:
    """Load a project plus a module -> role map (src/test)."""
    project = Project.load(paths, root=root)
    roles = {name: ctx.role for name, ctx in project.modules.items()}
    return project, roles
