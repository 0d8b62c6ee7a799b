"""Shared test plumbing: the acceptance verdict report, and systems whose
class tables are given rather than derived.

Criterion tests append one line each; the terminal-summary hook prints
them after capture ends so the verdicts show under any pytest invocation.
"""

import dataclasses

import pytest

ACCEPTANCE_VERDICTS = []


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_VERDICTS


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.ensure_newline()
        terminalreporter.section("acceptance verdicts")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.line(line)


def with_classes(system, classes, partition=None):
    """A copy of system holding the given class tables, and partition in
    place of its own when one is given.

    A system derives its classes from its partition on first read; this is
    how a test pairs a partition with tables that may disagree with it.
    """
    out = dataclasses.replace(system, **(
        {} if partition is None else {"partition": partition}))
    # classes is a cached property: filling its slot skips the derivation
    object.__setattr__(out, "classes", classes)
    return out
