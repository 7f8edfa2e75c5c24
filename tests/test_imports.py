"""Every name a package or test module imports is used there (a stdlib stand-in
for F401), no package module imports ``scipy.stats``, the pipelines that
never call scipy's solvers do not load them, every default of a package
function is overridden by some call with a value other than the default's
own literal: in the package for a private function, in the package, the
tests or the benchmark for a public one, every public definition of the
package runs in a pipeline or is named library-only API, and no function
takes a start time ``t0`` beside a ``grid``, whose first node is the start
time.

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


POINT_QUERIES = ("signed_distance", "project_to_boundary", "normal")


def point_query_overrides(sources):
    """``Class.name`` for each point query that a subclass of ``Domain`` in
    ``sources`` defines or binds."""
    classes = [node for tree in map(ast.parse, sources) for node in tree.body
               if isinstance(node, ast.ClassDef)]
    family, grown = {"Domain"}, True
    while grown:
        sub = {c.name for c in classes
               if any(getattr(b, "id", None) in family for b in c.bases)}
        grown, family = not sub <= family, family | sub
    found = []
    for cls in classes:
        if cls.name == "Domain" or cls.name not in family:
            continue
        for item in cls.body:
            names = ([item.name] if isinstance(item, ast.FunctionDef) else
                     [t.id for t in item.targets if isinstance(t, ast.Name)]
                     if isinstance(item, ast.Assign) else [])
            found += [f"{cls.name}.{n}" for n in names if n in POINT_QUERIES]
    return sorted(found)


def test_no_domain_subclass_defines_a_point_query():
    # a point query is written once, in Domain, as the one-row batch
    assert point_query_overrides(_sources(PACKAGE.glob("*.py"))) == []


def test_point_query_checker_follows_subclasses():
    src = ("class Domain:\n    def normal(self, x):\n        pass\n"
           "class A(Domain):\n    def signed_distance(self, x):\n        pass\n"
           "class B(A):\n    normal = None\n    def normal_many(self, X):\n        pass\n"
           "class C:\n    def project_to_boundary(self, x):\n        pass\n")
    assert point_query_overrides([src]) == ["A.signed_distance", "B.normal"]


_COLD_START = """
import json
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from obliqueldp.cli import RunContext, load_config, run

def loaded(names=("scipy.optimize", "scipy.stats")):
    return [m for m in names if m in sys.modules]

out = Path(sys.argv[2])
for cfg in sys.argv[5:]:
    RunContext(load_config(cfg), out, 1, 1)
seen = {"RunContext": loaded(("scipy.optimize", "scipy.stats", "concurrent.futures"))}
for cfg, sub in ((sys.argv[3], "hjb"), (sys.argv[3], "stopping"), (sys.argv[3], "simulate"),
                 (sys.argv[4], "testfn-check")):
    assert run(cfg, sub, out=out / sub) == 0, sub
    seen[sub] = loaded()
print(json.dumps(seen))
"""


def test_pipelines_without_a_solve_load_no_scipy_solvers(tmp_path):
    # scipy.optimize and scipy.stats take most of a cold start; only the
    # L-BFGS rate solve and the bracketed pushbacks import scipy.optimize,
    # and nothing imports scipy.stats, so building every bundled config's
    # context (which certifies its field) and the hjb, stopping, simulate and
    # 2-D testfn-check pipelines must not; a context loads no thread pool
    configs = sorted((ROOT / "configs").glob("*.json")) + sorted(
        (ROOT / "perfbench" / "configs").glob("*.json"))
    cfg = json.loads((ROOT / "perfbench" / "configs" / "ellipse_geometry.json").read_text())
    cfg["testfn"].update(n_boundary=12, probe_samples=32, n_samples=64)
    small = tmp_path / "ellipse_testfn.json"
    small.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(PACKAGE.parent), str(tmp_path),
         str(ROOT / "configs" / "example_1d.json"), str(small), *map(str, configs)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "RunContext": [], "hjb": [], "stopping": [], "simulate": [], "testfn-check": []}


def modules_importing(sources, module):
    """The indices of ``sources`` that import ``module`` or a submodule of
    it, as ``import module``, ``from module import ...`` or ``from parent
    import name``."""
    def names(node):
        if isinstance(node, ast.Import):
            return [a.name for a in node.names]
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        return []

    return [i for i, src in enumerate(sources)
            if any(n == module or n.startswith(module + ".")
                   for node in ast.walk(ast.parse(src)) for n in names(node))]


def test_no_package_module_imports_scipy_stats():
    # the Sobol points are built in geometry; scipy.stats costs a cold start
    # about 25 MB and pulls in scipy.optimize
    paths = sorted(PACKAGE.glob("*.py"))
    assert [paths[i].name for i in modules_importing(_sources(paths), "scipy.stats")] == []


def test_import_checker_finds_every_spelling():
    srcs = ["import scipy.stats\n", "from scipy.stats import qmc\n",
            "def f():\n    from scipy import stats\n", "from scipy.stats._qmc import Sobol\n",
            "import scipy\nfrom scipy.optimize import brentq\n", "import scipy.statsmodels\n",
            "from .scipy.stats import x\n"]
    assert modules_importing(srcs, "scipy.stats") == [0, 1, 2, 3]


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
    """(name, positional index or None, default) of every parameter with a
    default; a method's index does not count ``self``."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    shift = 1 if is_method else 0
    for i, (arg, default) in enumerate(zip(positional[first:], args.defaults), start=first):
        yield arg.arg, i - shift, default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None, default


def _spelled(scope):
    """The names a ``**`` argument may pass from ``scope``: the keywords of
    its ``dict(...)`` calls and its string keys (dict displays, subscripts)."""
    names = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
            names |= {kw.arg for kw in node.keywords}
        keys = (node.keys if isinstance(node, ast.Dict)
                else [node.slice] if isinstance(node, ast.Subscript) else [])
        names |= {k.value for k in keys
                  if isinstance(k, ast.Constant) and isinstance(k.value, str)}
    return names


def _calls(scope, names=None):
    """(call, names) for every call in ``scope``, with the names that
    ``_spelled`` finds in its innermost enclosing function (or the module)."""
    names = _spelled(scope) if names is None else names
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _calls(node)
            continue
        if isinstance(node, ast.Call):
            yield node, names
        yield from _calls(node, names)


_NOT_LITERAL = object()


def _literal(node):
    """The value of a literal expression, or a marker that equals no value."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return _NOT_LITERAL


def _overrides(value, default) -> bool:
    """Whether passing the expression ``value`` can change a parameter whose
    default is ``default``: not when both are the same literal."""
    got, want = _literal(value), _literal(default)
    return got is _NOT_LITERAL or type(got) is not type(want) or got != want


def _passes(call, spelled, name, index, default):
    """Whether ``call`` passes the parameter by keyword or by position with a
    value other than its default's own literal; a ``*args`` argument may
    pass anything, a ``**kwargs`` argument the names ``spelled`` out where
    the call is made."""
    for kw in call.keywords:
        if kw.arg == name and _overrides(kw.value, default):
            return True
        if kw.arg is None and name in spelled:
            return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index and _overrides(call.args[index], default)


def unpassed_defaults(sources, callers, private):
    """``name(param)`` for each defaulted parameter of a private (or public)
    function or method in ``sources`` that no call of that name in
    ``callers`` passes a value other than the default."""
    trees = [ast.parse(src) for src in sources]
    calls = {}
    for tree in map(ast.parse, callers):
        for node, spelled in _calls(tree):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(name, []).append((node, spelled))
    return sorted(f"{fname}({param})"
                  for tree in trees
                  for fname, func, is_method in _defs(tree, private)
                  for param, index, default in _defaulted(func, is_method)
                  if not any(_passes(c, spelled, param, index, default)
                             for c, spelled in calls.get(fname, [])))


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
           "_f(0, c=3)\n_g(0, 2)\nK()._m(5)\n")
    assert unpassed_defaults([src], [src], private=True) == ["_f(b)", "_m(y)"]
    assert unpassed_defaults([src], [src], private=False) == ["m(w)"]
    assert unpassed_defaults([src], [src, "K().m(w=1)\n"], private=False) == []


def test_default_checker_does_not_count_the_default_literal():
    # passing a default's own literal value sets nothing
    src = ("def f(a, n=64, *, s='x', t=None, u=-1.5):\n    pass\n"
           "f(0, 64, s='x', t=None, u=-1.5)\n")
    assert unpassed_defaults([src], [src], private=False) == ["f(n)", "f(s)", "f(t)", "f(u)"]
    # another literal, a literal of another type, or a non-literal is an override
    assert unpassed_defaults([src], [src, "f(0, n=32, s=b'x', t=T, u=(-1.5,))\n"],
                             private=False) == []


def test_default_checker_reads_double_star_arguments_where_they_are_built():
    # a **name argument passes only the names its function spells out as
    # dict(...) keywords or string keys; one forwarded from a **parameter
    # passes none of them
    src = ("def _h(a, b=1, c=2, d=3, e=4):\n    pass\n"
           "def _forward(**options):\n    _h(0, **options)\n"
           "def _build():\n"
           "    kw = dict(b=2)\n    kw['c'] = 3\n    _h(0, **kw)\n"
           "    _h(0, **{'d': 4})\n")
    assert unpassed_defaults([src], [src], private=True) == ["_h(e)"]
    assert unpassed_defaults([src], [src.replace("_h(0, **kw)", "_h(0, **kw, e=5)")],
                             private=True) == []


def _reads(node):
    """The names and attribute names read anywhere in ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def unreached_definitions(sources, roots):
    """The public module-level functions and classes of ``sources`` that no
    chain of reads reaches from the names ``roots``.

    A module-level function, class or assignment reads the names and
    attribute names in it; a name read reaches every module-level
    definition of that name, in any of the sources.
    """
    defs, public = {}, set()
    for tree in map(ast.parse, sources):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
                if not node.name.startswith("_"):
                    public.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        defs.setdefault(target.id, []).append(node.value)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in defs.get(name, ()):
                todo += _reads(node) - reached
    return sorted(public - reached)


def exported_names():
    """The names ``obliqueldp/__init__.py`` re-exports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


# The library-only API: public definitions that no pipeline runs and that
# stay because callers use them.  load_npz reads hjb's value grid; the
# paper's claims are checked by the acceptance criteria (solve_skorokhod_picard,
# validate_reflected_path, holder_half_quotient, weak_stability_check,
# cap_identity_check); residual_scan and value_inf_sup are test oracles.
LIBRARY_ONLY = {
    "load_npz", "constant_coefficients", "normal_field",
    "solve_skorokhod_picard", "validate_reflected_path", "holder_half_quotient",
    "weak_stability_check", "cap_identity_check", "residual_scan", "value_inf_sup",
}


def test_every_public_definition_is_reached_or_exported():
    # cli.main reaches the pipelines through HANDLERS; a public definition
    # that no pipeline runs is named in LIBRARY_ONLY, or goes
    package = _sources(PACKAGE.glob("*.py"))
    assert unreached_definitions(package, {"main"} | LIBRARY_ONLY) == []


def test_every_library_only_name_is_exported_and_unreached():
    # a stale entry fails: one that __init__ dropped, or one a pipeline now runs
    package = _sources(PACKAGE.glob("*.py"))
    assert LIBRARY_ONLY - exported_names() == set()
    assert LIBRARY_ONLY - set(unreached_definitions(package, {"main"})) == set()


def test_reach_checker_follows_reads_through_classes_and_assignments():
    cli = ("def main():\n    return TABLE['x']()\n"
           "TABLE = {'x': handler}\n"
           "def handler():\n    return util.helper(Box())\n"
           "def orphan():\n    return helper(1)\n"
           "def _private():\n    pass\n"
           "def api():\n    return _private()\n")
    util = ("class Box:\n    def size(self):\n        return measure(self)\n"
            "def helper(b):\n    return b.size()\n"
            "def measure(b):\n    return 0\n"
            "class Lone:\n    pass\n")
    assert unreached_definitions([cli, util], {"main"}) == ["Lone", "api", "orphan"]
    assert unreached_definitions([cli, util], {"main", "api"}) == ["Lone", "orphan"]
    assert unreached_definitions([cli, util], {"handler"}) == ["Lone", "api", "main", "orphan"]


def second_api_lists(paths):
    """The modules among ``paths``, other than ``__init__.py``, that assign
    ``__all__``."""
    found = []
    for path in paths:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                       else [])
            if any(getattr(t, "id", None) == "__all__" for t in targets):
                found.append(path.name)
                break
    return found


def test_the_library_api_is_listed_once():
    # the library API is what __init__ re-exports; no module keeps a second list
    assert second_api_lists(sorted(PACKAGE.glob("*.py"))) == []


def test_api_list_checker_flags_modules_but_not_the_package(tmp_path):
    for name, src in (("__init__.py", "__all__ = ['a']\n"), ("a.py", "__all__ = ['f']\n"),
                      ("b.py", "x = 1\n__all__: list = []\n"), ("c.py", "all_ = []\n")):
        (tmp_path / name).write_text(src)
    assert second_api_lists(sorted(tmp_path.glob("*.py"))) == ["a.py", "b.py"]


def start_time_beside_grid(sources):
    """The functions and methods of ``sources``, nested ones included, that
    take both a ``t0`` and a ``grid`` parameter."""
    found = []
    for node in (n for tree in map(ast.parse, sources) for n in ast.walk(tree)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            if {"t0", "grid"} <= {a.arg for a in args.posonlyargs + args.args
                                  + args.kwonlyargs}:
                found.append(node.name)
    return sorted(found)


def test_no_function_takes_a_start_time_beside_a_grid():
    # a grid's first node is the start time: a second input could disagree
    assert start_time_beside_grid(_sources(PACKAGE.glob("*.py"))) == []


def test_start_time_checker_reads_functions_methods_and_keywords():
    src = ("def f(t0, grid):\n    pass\n"
           "def g(grid, *, t0=0.0):\n    pass\n"
           "def h(t0, t_end, n_steps):\n    pass\n"
           "class K:\n    def m(self, x, t0, grid=None):\n        pass\n"
           "    def n(self, grid):\n        def inner(grid, t0):\n            pass\n")
    assert start_time_beside_grid([src]) == ["f", "g", "inner", "m"]
