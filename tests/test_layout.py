"""The package holds only code that the pipeline, the CLI or the benchmark
runs: every module-level function and class in `src/brooks_sim/` is
referenced from a package module other than the `__init__.py` re-exports, or
from `bench/`. Code that only the tests need belongs in `tests/` (reference
oracles go to `tests/oracles.py`). Every name a module-level import binds in
such a module is used in that module.

A reference is a name, an attribute or a from-import name in the syntax
tree, so a mention in a docstring or comment does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "brooks_sim"


def referenced_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_package_def_has_a_non_test_caller():
    modules = [p for p in sorted(PACKAGE.rglob("*.py")) if p.name != "__init__.py"]
    used: set[str] = set()
    for path in modules + sorted((ROOT / "bench").glob("*.py")):
        used |= referenced_names(path)
    defined = [
        (path.relative_to(PACKAGE).as_posix(), node.name)
        for path in modules
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    assert len(defined) > 50  # the scan found the package
    unused = [f"{module}:{name}" for module, name in defined if name not in used]
    assert unused == []


def test_every_module_level_import_is_used():
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound += [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [a.asname or a.name for a in node.names]
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        module = path.relative_to(PACKAGE).as_posix()
        unused += [f"{module}:{name}" for name in bound if name not in loaded]
    assert unused == []
