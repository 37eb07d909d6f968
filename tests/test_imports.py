"""Every name a package module imports is used in that module, every
public name a package module binds has a caller, every public method
and property of a package class has a caller, every default of a public
function or method is relied on, and every module imports on its own.

No linter ships with the test dependencies, so the first four are small
``ast`` passes. The first is in the spirit of pyflakes' F401: an import
binds names, and each bound name must be read somewhere in the module.
An import statement carrying ``# noqa: F401`` is exempt. The second
holds each public top-level def, class and assigned name of a module to
a caller: the module reads it itself, or the package, its scripts or
its benchmark import it by name or read it as an attribute, or the
acceptance tests do. The third holds each public method and property
of a class to the same callers, which read it as an attribute. The
fourth holds each default of a public function, method or class
constructor to a call among the same callers that omits the argument,
so that no default serves only the tests. The package namespace
re-exports nothing, so callers name the modules, and the last check
imports each module in a fresh interpreter so that an import cycle
shows whichever module is imported first.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pointscatter"
MODULES = sorted(PACKAGE.glob("*.py"))
CALLERS = [p for d in ("src", "scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
CALLERS.append(ROOT / "tests" / "test_acceptance.py")


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


def caller_reads(source: str) -> set[str]:
    """Names ``source`` takes by ``from ... import`` or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def uncalled_names(source: str, called: set[str]) -> list[str]:
    """Public top-level names of module ``source`` that it never reads
    itself and that are not in ``called``."""
    tree = ast.parse(source)
    public = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            public.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            public.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(n for n in public if not n.startswith("_") and n not in read | called)


@pytest.fixture(scope="module")
def called():
    return set().union(*(caller_reads(p.read_text()) for p in CALLERS))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_name_has_a_caller(path, called):
    uncalled = uncalled_names(path.read_text(), called)
    assert [f"{path.name}: {name}" for name in uncalled] == []


def test_caller_check_flags_unread_names():
    module = (
        "import logging\n"
        "logger = logging.getLogger(__name__)\n"
        "LIMIT: int = 3\n"
        "_PRIVATE = 4\n"
        "def f():\n"
        "    return LIMIT\n"
        "def g():\n"
        "    pass\n"
        "class C:\n"
        "    pass\n"
    )
    called = caller_reads("from m import f\nimport m\nm.C\n")
    assert uncalled_names(module, called) == ["g", "logger"]


# public methods that no package code calls: argparse calls its parser's
EXEMPT_MEMBERS = {"_Parser.error"}


def uncalled_members(source: str, called: set[str]) -> list[str]:
    """``Class.name`` of each public method and property of the classes
    of module ``source`` that is not in ``called`` or exempt."""
    members = [
        f"{node.name}.{item.name}"
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
    ]
    return sorted(m for m in members if m.split(".")[1] not in called and m not in EXEMPT_MEMBERS)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_member_has_a_caller(path, called):
    uncalled = uncalled_members(path.read_text(), called)
    assert [f"{path.name}: {name}" for name in uncalled] == []


def test_member_check_flags_unread_members():
    module = (
        "class C:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def run(self):\n"
        "        pass\n"
        "    def stop(self):\n"
        "        pass\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "    def _helper(self):\n"
        "        pass\n"
        "class _Parser:\n"
        "    def error(self, message):\n"
        "        pass\n"
    )
    called = caller_reads("from m import C\nC().run()\n")
    assert uncalled_members(module, called) == ["C.size", "C.stop"]


def defaults(source: str) -> list[tuple[str, str, int | None]]:
    """``(function, parameter, position)`` of each defaulted parameter of
    the public functions, public methods and public classes'
    constructors of module ``source``; a keyword-only parameter has no
    position, and ``self`` or ``cls`` takes none."""
    found = []

    def add(name, args, skip):
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        found.extend((name, a.arg, i - skip) for i, a in enumerate(positional) if i >= first)
        found.extend((name, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)

    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            add(node.name, node.args, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
                if item.name == "__init__" and not node.name.startswith("_"):
                    add(node.name, item.args, 1)
                elif not item.name.startswith("_"):
                    add(item.name, item.args, 0 if static else 1)
    return found


def calls(source: str) -> list[tuple[str, int, set[str]]]:
    """``(name, positional, keywords)`` of each call in ``source`` of a
    name or attribute; a call with ``*args`` counts as passing every
    position, and one with ``**kwargs`` every keyword."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg for k in node.keywords}
        found.append((name, sys.maxsize if starred else len(node.args), keywords))
    return found


def unrelied_defaults(source: str, made: list[tuple[str, int, set[str]]]) -> list[str]:
    """``function(parameter)`` of each default of module ``source`` that
    no call in ``made`` omits."""
    omitted = set()
    for name, parameter, position in defaults(source):
        for callee, positional, keywords in made:
            if callee != name or None in keywords or parameter in keywords:
                continue
            if position is None or positional <= position:
                omitted.add((name, parameter))
                break
    return sorted(f"{n}({p})" for n, p, _ in defaults(source) if (n, p) not in omitted)


@pytest.fixture(scope="module")
def made():
    return [call for p in CALLERS for call in calls(p.read_text())]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_default_is_relied_on(path, made):
    unrelied = unrelied_defaults(path.read_text(), made)
    assert [f"{path.name}: {name}" for name in unrelied] == []


def test_default_check_flags_defaults_every_call_passes():
    module = (
        "def f(a, b=1, c=2, *, d=3):\n"
        "    pass\n"
        "def _g(a=1):\n"
        "    pass\n"
        "class C:\n"
        "    def __init__(self, size=4):\n"
        "        pass\n"
        "    def run(self, steps=5):\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def make(x=6):\n"
        "        pass\n"
    )
    made = calls(
        "f(0, 1, d=4)\n"
        "m.f(0, 1)\n"
        "C(4).run()\n"
        "C(*sizes)\n"
        "C.make(**options)\n"
    )
    assert unrelied_defaults(module, made) == ["C(size)", "f(b)", "make(x)"]


def test_every_module_imports_alone():
    # one interpreter, with the package dropped from sys.modules before
    # each module is imported, so no module rides on an earlier import
    names = [p.stem for p in MODULES if p.name != "__init__.py"]
    code = (
        "import importlib, sys\n"
        f"for name in {names!r}:\n"
        "    for key in [k for k in sys.modules if k.startswith('pointscatter')]:\n"
        "        del sys.modules[key]\n"
        "    importlib.import_module('pointscatter.' + name)\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_package_runs_without_scipy():
    # a None entry in sys.modules makes every import of scipy fail; the
    # cluster detector links points and the evaluation measures chamfer
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import pointscatter.cli\n"
        "from pointscatter.pipeline import DetectorConfig, PipelineConfig, run_pipeline\n"
        "from pointscatter.scene import demo_scene\n"
        "scene = demo_scene(noise_sigma=0.05, outlier_rate=0.1, steps=4)\n"
        "for mode in ('score_cluster', 'gt_passthrough'):\n"
        "    config = PipelineConfig(frames=4, detector=DetectorConfig(mode=mode))\n"
        "    report = run_pipeline(scene, config).report\n"
        "assert report['chamfer'] is not None\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert loaded == ['scipy'] and sys.modules['scipy'] is None, loaded\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
