"""Every name a package module imports is used in that module.

No linter ships with the test dependencies, so this is a small ``ast``
pass in the spirit of pyflakes' F401: an import binds names, and each
bound name must be read somewhere in the module. An import statement
carrying ``# noqa: F401`` is exempt, and so is ``__init__.py``, whose
imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pointscatter"
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
