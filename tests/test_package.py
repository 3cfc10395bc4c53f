"""Package surface: every module imports on its own, the root exports only
``__version__``, every fslvlasov name the demos, tools and benchmark
import or read from an imported module exists, every call site of the
traced benchmark's spans resolves, every default-valued parameter of
the package is passed by some call outside the tests, every top-level
name of the package is referenced outside its own definition, every
field of a package class is read outside the tests, every non-finite
check of a run goes through ``splines.check_finite``, that is called
only where a value is made or becomes an index, and ``solver`` makes a
seeded set in ``_remap`` alone."""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fslvlasov

REPO = Path(__file__).resolve().parents[1]
SRC = Path(fslvlasov.__file__).resolve().parents[1]

#: run in a child, so the test process keeps its own module objects: load
#: every module once (numpy and scipy stay loaded), then import each one
#: again first, after dropping every fslvlasov module
_FRESH_IMPORTS = """
import importlib, json, pkgutil, sys
import fslvlasov
names = sorted(m.name for m in pkgutil.iter_modules(fslvlasov.__path__))
for name in names:
    importlib.import_module("fslvlasov." + name)

def drop():
    for key in [k for k in sys.modules if k == "fslvlasov" or k.startswith("fslvlasov.")]:
        del sys.modules[key]

drop()
root = importlib.import_module("fslvlasov")
public = sorted(n for n in vars(root) if not n.startswith("_") or n == "__version__")
failed = {}
for name in names:
    drop()
    try:
        importlib.import_module("fslvlasov." + name)
    except Exception as err:  # report every module, not just the first
        failed[name] = repr(err)
print(json.dumps({"modules": names, "public": public,
                  "version": root.__version__, "failed": failed}))
"""


@pytest.fixture(scope="module")
def fresh_imports():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", _FRESH_IMPORTS], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout)


class TestImports:
    def test_every_module_imports_first(self, fresh_imports):
        assert "solver" in fresh_imports["modules"] and "cli" in fresh_imports["modules"]
        assert fresh_imports["failed"] == {}

    def test_root_exports_only_the_version(self, fresh_imports):
        assert fresh_imports["public"] == ["__version__"]

    def test_version_matches_pyproject(self, fresh_imports):
        text = (REPO / "pyproject.toml").read_text()
        (version,) = re.findall(r'^version\s*=\s*"([^"]+)"', text, flags=re.M)
        assert fresh_imports["version"] == version


SUBMODULES = {f"fslvlasov.{m.name}" for m in pkgutil.iter_modules(fslvlasov.__path__)}


def _script_names(path: Path):
    """(line, module, name) of each fslvlasov name a script imports, and of
    each attribute it reads from a module so imported (``solver.run``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = [(node.lineno, node.module, alias) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0
                and (node.module or "").split(".")[0] == "fslvlasov" for alias in node.names]
    modules = {a.asname or a.name: f"{m}.{a.name}" for _, m, a in imported
               if f"{m}.{a.name}" in SUBMODULES}
    return [(line, m, a.name) for line, m, a in imported] + [
        (node.lineno, modules[node.value.id], node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules]


def _resolve(module: str, name: str):
    """``from module import name``: an attribute, else a submodule."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")


SCRIPTS = sorted(p for d in ("demos", "tools", "perfbench") for p in (REPO / d).glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_names_resolve(path):
    missing = []
    for line, module, name in _script_names(path):
        try:
            _resolve(module, name)
        except (ImportError, AttributeError):
            missing.append(f"{path.name}:{line} {module}.{name}")
    assert missing == []


def test_scripts_are_checked():
    assert any(p.name == "dispersion_table.py" for p in SCRIPTS)
    assert ("fslvlasov.landau", "dispersion_table") in {
        (m, n) for _, m, n in _script_names(REPO / "demos" / "dispersion_table.py")}


def _span_call_sites():
    """(span, module, candidate names) of each call site in the traced
    benchmark's ``STEP_SPANS`` and ``SETUP_SPANS``, read by ``ast``."""
    tree = ast.parse((REPO / "perfbench" / "spans.py").read_text())
    tables = {t.id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) for t in node.targets
              if isinstance(t, ast.Name) and t.id in ("STEP_SPANS", "SETUP_SPANS")}
    return [(span, module, names) for table in ("STEP_SPANS", "SETUP_SPANS")
            for span, sites in tables[table].items() for module, names in sites]


def test_span_call_sites_resolve():
    """A span wraps one of its candidates where the calling module looks it
    up, so each site needs at least one of them as a module attribute."""
    sites = _span_call_sites()
    assert ("hill.matched_omega0", "hill", ("matched_omega0",)) in sites
    missing = [f"{span}: fslvlasov.{module} has none of {names}"
               for span, module, names in sites
               if not any(hasattr(importlib.import_module(f"fslvlasov.{module}"), n)
                          for n in names)]
    assert missing == []


#: default-valued parameters that no call in the scanned trees passes, and why
#: each stays: ``cli.main``'s ``argv`` is None from the console entry, which
#: passes none, and the tests drive the CLI through it
UNSET_ALLOWED = {("cli", "main", "argv")}
CALLER_DIRS = ("src", "demos", "tools", "perfbench")


def _trees(dirs):
    return [(path, ast.parse(path.read_text(), filename=str(path)))
            for d in dirs for path in sorted((REPO / d).rglob("*.py"))]


def _defaulted_parameters():
    """(module, def, parameter, position or None) of each default-valued
    parameter of a ``def`` in the package; a method's positions skip self."""
    found = []
    for path in sorted((SRC / "fslvlasov").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for fn in (f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)):
            a, skip = fn.args, int(id(fn) in methods)
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            found += [(path.stem, fn.name, arg.arg, k - skip)
                      for k, arg in enumerate(positional) if k >= first]
            found += [(path.stem, fn.name, arg.arg, None)
                      for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return found


def _calls():
    """(callee name, positional count, keywords, unpacks) of each call in the
    scanned trees; a class's name stands for its ``__init__``."""
    classes, calls = set(), []
    for _, tree in _trees(CALLER_DIRS):
        classes |= {c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)}
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            f = call.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            unpacks = any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords)
            calls.append((name, len(call.args), {k.arg for k in call.keywords}, unpacks))
    return [("__init__" if name in classes else name, *rest) for name, *rest in calls]


def test_every_defaulted_parameter_is_passed():
    """A parameter stays only if a non-test caller sets it: each default-valued
    parameter of the package is passed, by keyword or by position, by some
    call in ``src``, ``demos``, ``tools`` or ``perfbench`` (a call with
    ``*args`` or ``**kwargs`` passes them all)."""
    params = _defaulted_parameters()
    assert ("cli", "main", "argv", 0) in params and ("splines", "stencil", "margin", 2) in params
    calls = _calls()
    unset = {(module, fn, name) for module, fn, name, k in params
             if not any(callee == fn and (unpacks or name in keys or (k is not None and n > k))
                        for callee, n, keys, unpacks in calls)}
    assert unset - UNSET_ALLOWED == set()


#: top-level names of the package that nothing references, and why each stays
UNREFERENCED_ALLOWED: dict = {}
#: fields of package classes that nothing outside the tests reads, and why each stays
UNREAD_ALLOWED: dict = {}


def _references(node):
    """Each name ``node`` references: a load of the name, an attribute, an
    imported name or a string constant."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.ImportFrom):
            yield from (a.name for a in n.names)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def _assigned(stmt):
    """The plain names an assignment statement binds; none for other statements."""
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _defined(stmt):
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    return _assigned(stmt)


def test_every_top_level_name_is_referenced():
    """A name stays only if something uses it: each top-level ``def``,
    ``class`` and assigned name of the package is referenced outside its
    own definition, in ``src``, ``demos``, ``tools``, ``perfbench`` or
    ``tests``, or by an entry point in pyproject.toml."""
    entries = re.findall(r':(\w+)"', (REPO / "pyproject.toml").read_text())
    statements = [(path, stmt) for path, tree in _trees(CALLER_DIRS + ("tests",))
                  for stmt in tree.body]
    refs = {}  # name -> the statements that reference it
    for k, (_, stmt) in enumerate(statements):
        for name in _references(stmt):
            refs.setdefault(name, set()).add(k)
    defined = [(path.stem, name, k) for k, (path, stmt) in enumerate(statements)
               if path.parent == SRC / "fslvlasov" for name in _defined(stmt)]
    assert ("solver", "run") in {(m, n) for m, n, _ in defined}
    assert "console_entry" in entries
    unreferenced = {(module, name) for module, name, k in defined
                    if not refs.get(name, set()) - {k} and name not in entries}
    assert unreferenced - set(UNREFERENCED_ALLOWED) == set()


def _fields(cls):
    """The dataclass fields, class-level attributes and ``self.<attr>``
    assignments of a class."""
    found = set().union(*map(_assigned, cls.body))
    for fn in (f for f in cls.body if isinstance(f, ast.FunctionDef)):
        found |= {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)
                  and isinstance(n.ctx, ast.Store) and isinstance(n.value, ast.Name)
                  and n.value.id == "self"}
    return found


def test_every_field_is_read():
    """A field stays only if ``src``, the CLI, a demo, a tool or perfbench
    reads it: each field of a package class is read as an attribute in
    ``src``, ``demos``, ``tools`` or ``perfbench``."""
    trees = _trees(CALLER_DIRS)
    read = {n.attr for _, tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    fields = {(path.stem, cls.name, name) for path, tree in trees
              if path.parent == SRC / "fslvlasov"
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for name in _fields(cls)}
    assert ("solver", "RunResult", "snapshots") in fields
    unread = {field for field in fields if field[2] not in read}
    assert unread - set(UNREAD_ALLOWED) == set()


#: functions of the package that test finiteness themselves, and why each
#: stays; every other non-finite check calls ``splines.check_finite``, whose
#: FloatingPointError is the one type ``solver.run`` turns into a NumericsAbort
FINITE_TESTS_ALLOWED = {
    ("splines", "check_finite"): "the one helper",
    ("cases", "_validate"): "config floats and the step count: a ConfigError",
    ("solver", "init"): "f0: a ConfigError that names the keys shaping it",
    ("solver", "_checked_energy"): "a scalar against its ceiling",
    ("diagnostics", "fit_damping"): "a filter of the log energies, not a fault",
    ("landau", "plasma_Z"): "a reference, not on the run path",
}
NON_FINITE_MESSAGE = re.compile(r"finite|\binfs?\b|\bnans?\b", re.I)


def _tests_finite(node) -> bool:
    """``node`` reads ``isfinite`` or raises a ValueError whose message says non-finite."""
    if isinstance(node, ast.Attribute):
        return node.attr == "isfinite"
    if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
        return getattr(node.exc.func, "id", None) == "ValueError" and any(
            isinstance(n, ast.Constant) and isinstance(n.value, str)
            and NON_FINITE_MESSAGE.search(n.value) for n in ast.walk(node.exc))
    return False


def _sites(package: Path, match) -> list:
    """(module, innermost function) of each node of the ``package`` directory
    that ``match`` accepts."""
    found = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else where
            if match(child):
                found.append((module, inner))
            visit(child, module, inner)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, "<module>")
    return found


def test_every_non_finite_check_is_the_helper():
    """No ``np.isfinite`` and no ValueError that says non-finite in the package,
    outside ``check_finite`` and the functions of ``FINITE_TESTS_ALLOWED``."""
    found = set(_sites(SRC / "fslvlasov", _tests_finite))
    assert found - set(FINITE_TESTS_ALLOWED) == set()
    assert set(FINITE_TESTS_ALLOWED) <= found  # the scan sees each, and none is stale


#: the one call of ``splines.check_finite`` in each function here, and why
#: the check sits there: each value of a run is checked once, where it is
#: made or where it becomes an index, and no kernel re-scans its inputs
FINITE_CHECK_SITES = {
    ("splines", "_locate"): "a float becomes a cell index",
    ("deposition", "seed_particles"): "the particles' weights are made",
}


def _calls_check_finite(node) -> bool:
    return isinstance(node, ast.Call) and "check_finite" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_check_finite_is_called_where_a_value_is_made_or_located():
    """``check_finite`` has one call in each function of ``FINITE_CHECK_SITES``
    and none elsewhere in the package."""
    calls = _sites(SRC / "fslvlasov", _calls_check_finite)
    assert sorted(calls) == sorted(FINITE_CHECK_SITES)


#: the calls that make a seeded set: fit f, seed the particles at the nodes
#: and hand them to the provider.  ``solver`` makes each in ``_remap`` alone,
#: the one remap of every scheme, which ``init`` ends in (t = 0)
SEEDING_CALLS = ("fit_2d", "seed_particles", "reseed")


def _calls_seeding(node) -> bool:
    return isinstance(node, ast.Call) and bool(
        {getattr(node.func, "id", None), getattr(node.func, "attr", None)} & set(SEEDING_CALLS))


def test_remap_alone_makes_a_seeded_set():
    """Each of ``SEEDING_CALLS`` has one call in ``solver``, inside ``_remap``."""
    calls = [site for site in _sites(SRC / "fslvlasov", _calls_seeding) if site[0] == "solver"]
    assert calls == [("solver", "_remap")] * len(SEEDING_CALLS)
