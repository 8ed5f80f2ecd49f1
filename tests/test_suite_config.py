"""The suite's own configuration: a failing property test is reported as
one failure, and the tests after it still run.

When a hypothesis test fails, its pytest plugin imports libcst, which emits
a ``DeprecationWarning`` for ``mypy_extensions.TypedDict``; under the
suite's ``error::DeprecationWarning`` filter that stopped the session with
INTERNALERROR. ``pyproject.toml`` ignores that one message.
"""
import os
import subprocess
import sys

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
