"""Every ``repro`` module has a caller outside the tests.

A module that only its own tests import is code no pipeline runs: it is
read, linted and kept green, and nothing depends on what it computes.
This scan walks the imports of ``src/repro`` and of the directories that
drive the program (``benchmarks/``, ``examples/``, ``perfbench/``) and
fails on any non-package module that none of them imports.  A module
must then be wired into a pipeline, or deleted together with its tests.

What counts as an importer of module ``M``:

* any module under ``src/repro`` — except a package ``__init__``, which
  counts only when it uses the imported name for more than its
  ``__all__`` re-export;
* any file in ``benchmarks/``, ``examples/`` or ``perfbench/``, also
  through a package that re-exports a name of ``M``
  (``from repro.edge import RiskAssessor`` imports ``repro.edge.risk``).

``repro.cli`` and every ``__main__`` are entry points, run rather than
imported.
"""

import ast
import pathlib
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DRIVER_DIRS = ("benchmarks", "examples", "perfbench")
ENTRY_POINTS = {"repro.cli"}


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _src_modules() -> Dict[str, pathlib.Path]:
    return {_module_name(p): p for p in sorted((SRC / "repro").rglob("*.py"))}


def _imports(
    tree: ast.Module, package: Optional[str]
) -> Iterator[Tuple[str, Optional[str], str]]:
    """``(module, imported name or None, bound name)`` for each import.

    ``package`` is the package a relative import resolves against (None
    outside ``src``, where every import is absolute).
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                if package is None:
                    continue
                parts = package.split(".")
                base = ".".join(parts[: len(parts) - node.level + 1])
                module = f"{base}.{node.module}" if node.module else base
            else:
                module = node.module or ""
            for alias in node.names:
                yield module, alias.name, alias.asname or alias.name


def _loaded_names(tree: ast.Module) -> Set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _targets(module: str, name: Optional[str], known: Set[str],
             reexports: Dict[str, Dict[str, str]]) -> List[str]:
    """The src modules one imported name reaches."""
    if name is None:
        return [module] if module in known else []
    if f"{module}.{name}" in known:  # ``from pkg import submodule``
        return [f"{module}.{name}"]
    found = [module] if module in known else []
    origin = reexports.get(module, {}).get(name)
    if origin is not None:
        found.append(origin)
    return found


def uncalled_modules() -> List[str]:
    """Non-package ``repro`` modules that no importer reaches."""
    modules = _src_modules()
    known = set(modules)
    trees = {name: ast.parse(path.read_text(encoding="utf-8")) for name, path in modules.items()}
    packages = {name for name, path in modules.items() if path.name == "__init__.py"}

    reexports: Dict[str, Dict[str, str]] = {}
    for package in packages:
        for module, name, bound in _imports(trees[package], package):
            if name is not None and module in known and f"{module}.{name}" not in known:
                reexports.setdefault(package, {})[bound] = module

    called: Set[str] = set()
    for importer, tree in trees.items():
        is_package = importer in packages
        package = importer if is_package else importer.rpartition(".")[0]
        used = _loaded_names(tree) if is_package else None
        for module, name, bound in _imports(tree, package):
            if used is not None and bound not in used:
                continue  # an ``__all__``-only re-export
            called.update(t for t in _targets(module, name, known, reexports) if t != importer)

    for directory in DRIVER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for module, name, _ in _imports(tree, None):
                called.update(_targets(module, name, known, reexports))

    return sorted(
        name
        for name in known - packages - called
        if name not in ENTRY_POINTS and not name.endswith(".__main__")
    )


def test_scan_sees_the_source_tree():
    modules = _src_modules()
    assert "repro.serve.actor" in modules and len(modules) > 50


def test_every_module_has_a_caller():
    assert uncalled_modules() == [], (
        "modules only tests import: wire each into a pipeline or delete it"
    )
