"""Every name a package or test module imports is used there (a stdlib stand-in
for F401), the pipelines that never call scipy's solvers do not load them, and
every default of a package function is overridden by some call: in the package
for a private function, in the package, the tests or the benchmark for a
public one.

A line marked ``# noqa: F401`` keeps its imports: package re-exports, and
names other code reaches through the module.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "obliqueldp"
FILES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _imported(tree, lines):
    """(name, line) for every name bound by an import not marked noqa F401."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            yield name, node.lineno


def _used(tree):
    """Names read anywhere, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                             if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str):
    tree = ast.parse(source)
    used = _used(tree)
    return [(name, line) for name, line in _imported(tree, source.splitlines())
            if name not in used]


@pytest.mark.parametrize(
    "path", FILES, ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_and_honours_noqa():
    src = ("import os\n"
           "import sys  # noqa: F401\n"
           "from typing import Optional, Sequence\n"
           "from a.b import (c,  # noqa: F401\n"
           "    d)\n"
           "def f(x: 'Optional[int]') -> Sequence:\n"
           "    return x\n")
    assert unused_imports(src) == [("os", 1)]


def test_each_domain_class_binds_signed_distance_many():
    # perfbench/tracing.py wraps the method in each class's own __dict__
    from obliqueldp.geometry import Disk, Domain, Ellipse, Interval

    for cls in (Domain, Interval, Disk, Ellipse):
        assert "signed_distance_many" in cls.__dict__, cls.__name__


_COLD_START = """
import json
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from obliqueldp.cli import RunContext, load_config, run

def solvers():
    return [m for m in ("scipy.optimize", "scipy.stats") if m in sys.modules]

out = Path(sys.argv[2])
for cfg in sys.argv[4:]:
    RunContext(load_config(cfg), out, 1, 1)
loaded = {"RunContext": solvers()}
for sub in ("hjb", "stopping", "simulate"):
    assert run(sys.argv[3], sub, out=out / sub) == 0, sub
    loaded[sub] = solvers()
print(json.dumps(loaded))
"""


def test_pipelines_without_a_solve_load_no_scipy_solvers(tmp_path):
    # scipy.optimize and scipy.stats take most of a cold start; only the
    # L-BFGS rate solve, the bracketed pushbacks and Sobol sampling import
    # them, so building every bundled config's context (which certifies its
    # field) and the hjb, stopping and simulate pipelines must not
    configs = sorted((ROOT / "configs").glob("*.json")) + sorted(
        (ROOT / "perfbench" / "configs").glob("*.json"))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(PACKAGE.parent), str(tmp_path),
         str(ROOT / "configs" / "example_1d.json"), *map(str, configs)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "RunContext": [], "hjb": [], "stopping": [], "simulate": []}


def _defs(tree, private):
    """(name, def node, is_method) for the private (or the public)
    module-level functions and methods of module-level classes; dunders are
    neither."""
    def wanted(name):
        return not name.endswith("__") and name.startswith("_") == private

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and wanted(node.name):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and wanted(item.name):
                    yield item.name, item, True


def _defaulted(func, is_method):
    """(name, positional index or None) of every parameter with a default;
    a method's index does not count ``self``."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    shift = 1 if is_method else 0
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i - shift
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call, name, index):
    """Whether ``call`` passes the parameter by keyword or by position;
    a ``*args`` or ``**kwargs`` argument may pass anything."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def unpassed_defaults(sources, callers, private):
    """``name(param)`` for each defaulted parameter of a private (or public)
    function or method in ``sources`` that no call of that name in
    ``callers`` passes."""
    trees = [ast.parse(src) for src in sources]
    calls = {}
    for tree in map(ast.parse, callers):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return sorted(f"{fname}({param})"
                  for tree in trees
                  for fname, func, is_method in _defs(tree, private)
                  for param, index in _defaulted(func, is_method)
                  if not any(_passes(c, param, index) for c in calls.get(fname, [])))


def _sources(paths):
    return [p.read_text() for p in sorted(paths)]


def test_every_private_default_is_passed_somewhere():
    # a default that no call overrides is a setting no caller sets: a literal
    package = _sources(PACKAGE.glob("*.py"))
    assert unpassed_defaults(package, package, private=True) == []


def test_every_public_default_is_passed_somewhere():
    # the public API is also called from the tests and the benchmark
    package = _sources(PACKAGE.glob("*.py"))
    callers = (package + _sources((ROOT / "tests").glob("*.py"))
               + _sources((ROOT / "perfbench").rglob("*.py")))
    assert unpassed_defaults(package, callers, private=False) == []


def test_default_checker_counts_keywords_positions_and_methods():
    src = ("def _f(a, b=1, *, c=2):\n    pass\n"
           "def _g(a, b=1):\n    pass\n"
           "class K:\n"
           "    def _m(self, x=0, y=1):\n        pass\n"
           "    def __init__(self, z=0):\n        pass\n"
           "    def m(self, w=0):\n        pass\n"
           "_f(0, c=3)\n_g(0, 1)\nK()._m(5)\n")
    assert unpassed_defaults([src], [src], private=True) == ["_f(b)", "_m(y)"]
    assert unpassed_defaults([src], [src], private=False) == ["m(w)"]
    assert unpassed_defaults([src], [src, "K().m(w=1)\n"], private=False) == []
