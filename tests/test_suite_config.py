"""The suite's own configuration: a failing property test is reported as
one failure, and the tests after it still run; the package's modules
import no name they never use; and every private module-level name is read
somewhere in the package.

When a hypothesis test fails, its pytest plugin imports libcst, which emits
a ``DeprecationWarning`` for ``mypy_extensions.TypedDict``; under the
suite's ``error::DeprecationWarning`` filter that stopped the session with
INTERNALERROR. ``pyproject.toml`` ignores that one message.
"""
import ast
import glob
import importlib
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = '''\
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_always_fails(x):
    assert False


def test_passes():
    assert True
'''


def test_a_failing_property_test_does_not_stop_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", os.path.join(ROOT, "pyproject.toml"),
         "--rootdir", str(tmp_path), "-q", "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert proc.stdout.strip().splitlines()[-1].startswith("1 failed, 1 passed"), out


def _modules():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "adwave", "*.py")))
    return [p for p in paths if os.path.basename(p) != "__init__.py"]


@pytest.mark.parametrize("path", _modules(), ids=os.path.basename)
def test_a_module_imports_no_name_it_never_uses(path):
    """Every name an import binds in a module (``__init__`` re-exports and
    is left out) is read somewhere in it. The project runs no linter, so this
    catches the imports a deletion leaves behind."""
    with open(path) as f:
        tree = ast.parse(f.read())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}


def test_every_private_module_level_name_is_read_in_the_package():
    """Every ``_name`` that a module of ``src/adwave`` defines at module
    level (a function, class or assignment) is read somewhere in the
    package, as a name or an attribute. This catches the helpers and
    tables a deletion leaves behind."""
    trees = {}
    for path in glob.glob(os.path.join(ROOT, "src", "adwave", "*.py")):
        with open(path) as f:
            trees[os.path.basename(path)] = ast.parse(f.read())
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{module}:{node.lineno} {name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    assert unread == []


_MODULES = ("spectral", "dynamics", "potentials", "cli", "experiments", "reporting")


def test_readme_names_only_what_exists():
    """Every backticked ``module.name`` in README, for the modules above,
    resolves to an attribute of that module (``adwave.`` in front allowed;
    a dotted tail such as ``dynamics.Trajectory.u_stacks`` resolves too),
    and every backticked private ``_name`` is defined at module level in
    some ``src/adwave`` module. The benchmark's metric names, such as
    ``potentials.grad_ms.linear_taper``, are no attributes and are skipped."""
    with open(os.path.join(ROOT, "README.md")) as f:
        spans = re.findall(r"`([^`\n]+)`", f.read())
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = {m["name"] for m in json.load(f)["per_layer"]}
    defined = set()
    for path in glob.glob(os.path.join(ROOT, "src", "adwave", "*.py")):
        with open(path) as f:
            for node in ast.parse(f.read()).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.add(node.name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    defined.update(t.id for t in targets if isinstance(t, ast.Name))
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    defined.update(a.asname or a.name for a in node.names)
    pattern = re.compile(r"(?:adwave\.)?(%s)\.(\w+(?:\.\w+)*)" % "|".join(_MODULES))
    missing, named, absent = [], 0, object()
    for span in spans:
        found = pattern.match(span)
        if found and found.group(0) not in metrics:
            named += 1
            obj = importlib.import_module("adwave." + found.group(1))
            for attr in found.group(2).split("."):
                obj = getattr(obj, attr, absent)
            if obj is absent:
                missing.append(span)
        elif re.fullmatch(r"_[A-Za-z]\w*", span):
            named += 1
            if span not in defined:
                missing.append(span)
    assert named > 10 and missing == []
