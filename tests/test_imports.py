"""Every name a package module imports is read somewhere in that module,
and every module-level name it defines is read somewhere in the project.

`__init__.py` is left out of the import scan: its imports are the
package's top-level API, which is exactly the names the README's library
tour imports from `braidtel`.  The defined-name scan reads the package,
`tests/`, the `perfbench/*.py` scripts and the README's python block.
"""

import ast
from pathlib import Path

import pytest

import braidtel
from test_readme import readme_tour

PACKAGE = sorted(Path(braidtel.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
ROOT = Path(__file__).parents[1]


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_every_import(path):
    assert _unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    source = "import math\nfrom numpy import pi, e as euler\nprint(pi)\n"
    assert _unused_imports(source) == ["line 1: math", "line 2: euler"]


def _read_names(source: str) -> set[str]:
    """Names source reads: loads, attribute reads, import-from names and (dotted) identifier strings.

    A string that stands alone as a statement, as every docstring does, is not a read.
    """
    tree = ast.parse(source)
    docstrings, read = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                read.update(parts)
    return read


def _defined_names(source: str) -> dict[str, int]:
    """Module-level names source defines by assignment, def or class, with their lines; dunders left out."""
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update((n.id, node.lineno) for n in ast.walk(target)
                             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return {name: line for name, line in names.items() if not (name.startswith("__") and name.endswith("__"))}


def _dead_names(source: str, read: set[str]) -> list[str]:
    return [f"line {line}: {name}" for name, line in _defined_names(source).items() if name not in read]


@pytest.fixture(scope="module")
def project_reads() -> set[str]:
    scripts = [*PACKAGE, *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    return set().union(*map(_read_names, [p.read_text(encoding="utf-8") for p in scripts] + [readme_tour()]))


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_module_defines_no_dead_name(path, project_reads):
    assert _dead_names(path.read_text(encoding="utf-8"), project_reads) == []


def test_scan_flags_a_dead_name():
    source = '"""Docstring naming DEAD."""\nDEAD, KEPT = 1, 2\nNAMED = 3\n\n\ndef f():\n    return KEPT, "g.NAMED"\n'
    assert _dead_names(source, _read_names(source)) == ["line 2: DEAD", "line 6: f"]


def test_the_package_exports_exactly_what_the_readme_tour_imports():
    init = ast.parse(Path(braidtel.__file__).read_text(encoding="utf-8"))
    bound = {alias.asname or alias.name for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    tour = {alias.name for node in ast.walk(ast.parse(readme_tour()))
            if isinstance(node, ast.ImportFrom) and node.module == "braidtel" for alias in node.names}
    assert set(braidtel.__all__) == bound == tour
