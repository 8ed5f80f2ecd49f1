"""Test-suite configuration: repeatable property tests.

The ``repeatable`` hypothesis profile derives every property test's
examples from the test itself (``derandomize=True``) and keeps no example
database, so one commit draws the same examples on every run and machine.
It is loaded unless the command line picks a profile or a seed:
``pytest --hypothesis-seed=N`` still explores new examples.

A run that leaves a new entry in the working directory, other than the
caches of pytest, its benchmark plugin and hypothesis, fails: a test writes
into ``tmp_path`` (or changes into it) and nowhere else.
"""
import os

import pytest
from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)


def pytest_configure(config):
    if (config.getoption("--hypothesis-seed") is None
            and config.getoption("--hypothesis-profile") is None):
        settings.load_profile("repeatable")


_CACHES = {".pytest_cache", ".benchmarks", ".hypothesis", "__pycache__"}
_ENTRIES = pytest.StashKey[set]()


def pytest_sessionstart(session):
    session.stash[_ENTRIES] = set(os.listdir(session.config.invocation_params.dir))


def pytest_sessionfinish(session):
    root = session.config.invocation_params.dir
    left = sorted(set(os.listdir(root)) - session.stash[_ENTRIES] - _CACHES)
    if left:
        session.shouldfail = f"tests left {', '.join(left)} in {root}"  # printed last
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
