"""Package surface: every module imports on its own, the root exports only
``__version__``, every fslvlasov name the demos, tools and benchmark
import or read from an imported module exists, every call site of the
traced benchmark's spans resolves, and every default-valued parameter of
the package is passed by some call outside the tests."""

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
    for d in CALLER_DIRS:
        for path in sorted((REPO / d).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
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
