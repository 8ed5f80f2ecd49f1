"""Test-suite configuration: repeatable property tests.

The ``repeatable`` hypothesis profile derives every property test's
examples from the test itself (``derandomize=True``) and keeps no example
database, so one commit draws the same examples on every run and machine.
It is loaded unless the command line picks a profile or a seed:
``pytest --hypothesis-seed=N`` still explores new examples.
"""
from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)


def pytest_configure(config):
    if (config.getoption("--hypothesis-seed") is None
            and config.getoption("--hypothesis-profile") is None):
        settings.load_profile("repeatable")
