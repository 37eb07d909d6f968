"""Every name a package module imports is used in that module, and
every name the package exports has a caller.

No linter ships with the test dependencies, so these are small ``ast``
passes. The first is in the spirit of pyflakes' F401: an import binds
names, and each bound name must be read somewhere in the module. An
import statement carrying ``# noqa: F401`` is exempt, and so is
``__init__.py``, whose imports are the package's re-exports. The second
holds those re-exports to a caller: each must be read by the package,
its scripts or its benchmark, or be imported by the acceptance tests.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pointscatter"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements of ``source`` that are never read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_and_honours_noqa():
    source = (
        "from typing import Iterator\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .scatter import ScatterAccumulator  # noqa: F401\n"
        "def f(x) -> np.ndarray:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["Iterator (line 1)"]


def imported_names(path: Path) -> set[str]:
    """Names that ``from ... import`` statements of ``path`` take."""
    tree = ast.parse(path.read_text())
    return {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}


def read_names(path: Path) -> set[str]:
    """Names ``path`` reads, as a variable or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_export_has_a_caller():
    callers = [
        p
        for d in ("src", "scripts", "perfbench")
        for p in sorted((ROOT / d).rglob("*.py"))
        if p != PACKAGE / "__init__.py"
    ]
    read = set().union(*map(read_names, callers))
    accepted = imported_names(ROOT / "tests" / "test_acceptance.py")
    exports = imported_names(PACKAGE / "__init__.py")
    assert sorted(exports - read - accepted) == []
