"""Shared test plumbing: the acceptance verdict report, every structurally
valid mapping, the reference rule for a label's bucket, the class tables
read off a partition, and builds that paint and verifies that check.

Criterion tests append one line each; the terminal-summary hook prints
them after capture ends so the verdicts show under any pytest invocation.
"""

import itertools

import pytest

from cycloseq import cyclotomy, extfield
from cycloseq.sequence import Mapping

ACCEPTANCE_VERDICTS = []
# every structurally valid mapping: a, b, c, d distinct, e nonzero
ALL_MAPPINGS = tuple(Mapping(*perm, e)
                     for perm in itertools.permutations(range(4))
                     for e in (1, 2, 3))
# the doubled-modulus shapes, whose H-sets fill the odd positions
DOUBLED_SHAPES = ("2pq", "2p", "2q")


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_VERDICTS


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.ensure_newline()
        terminalreporter.section("acceptance verdicts")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.line(line)


def bucket_of_label(label):
    """The symbol bucket of a partition label by its shape and coset, the
    reference for cyclotomy.bucket_codes: zero and half are their own; a
    doubled-modulus H-set (odd positions) feeds a or b by coset, the
    doubled copy of an odd-modulus H-set (even positions) c or d."""
    if label in (cyclotomy.ZERO_LABEL, cyclotomy.HALF_LABEL):
        return label
    return ("ab" if label.shape in DOUBLED_SHAPES else "cd")[label.h]


def class_table(system, cid):
    """D_h of the class cid names, ascending, read off the partition: the
    positions of its label divided by the cofactor p^(m-i) q^(n-j), and by
    2 more for an odd-modulus class, whose label is its doubled copy."""
    c, odd = system.constants, cid.shape[0] != "2"
    cofactor = c.p**(c.m - cid.i) * c.q**(c.n - cid.j) * (2 if odd else 1)
    return cyclotomy.h_set(system, cid._replace(doubled=odd)) // cofactor


def fresh_held():
    """Bind build_system a fresh, empty store of painted systems, so the
    systems held so far, with the checks each keeps, are not read again;
    the fields stay held."""
    cyclotomy.HELD = cyclotomy._HeldSystems(cyclotomy.HELD_POSITIONS)


def clear_held():
    """Empty every memo of the process: the painted systems, with the
    checks each keeps, and the fields."""
    fresh_held()
    extfield.build_extension.cache_clear()


@pytest.fixture
def cold_builds():
    """build_system, build_extension and verify hold nothing, so the
    test's first build of each system paints it, its first field is built
    and its first verify checks, through any patch the test has made."""
    clear_held()
