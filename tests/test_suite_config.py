"""The suite's own configuration: a failing property test is reported as
one failure, and the tests after it still run; and the package's modules
import no name they never use.

When a hypothesis test fails, its pytest plugin imports libcst, which emits
a ``DeprecationWarning`` for ``mypy_extensions.TypedDict``; under the
suite's ``error::DeprecationWarning`` filter that stopped the session with
INTERNALERROR. ``pyproject.toml`` ignores that one message.
"""
import ast
import glob
import os
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
