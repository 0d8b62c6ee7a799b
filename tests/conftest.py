"""Shared test plumbing: the acceptance verdict report, every structurally
valid mapping, digit polynomials and GF(4) products for reference code,
the reference rule for a label's bucket, the class tables read off a
partition, builds that paint and verifies that check, and the benchmark's
analyze and verify systems.

Criterion tests append one line each; the terminal-summary hook prints
them after capture ends so the verdicts show under any pytest invocation.
"""

import importlib
import itertools
import os
import sys

import numpy as np
import pytest

from cycloseq import cells, cyclotomy, extfield, gf4, limits, numtheory
from cycloseq.sequence import Mapping

ACCEPTANCE_VERDICTS = []
# every structurally valid mapping: a, b, c, d distinct, e nonzero
ALL_MAPPINGS = tuple(Mapping(*perm, e)
                     for perm in itertools.permutations(range(4))
                     for e in (1, 2, 3))
# the doubled-modulus shapes, whose H-sets fill the odd positions
DOUBLED_SHAPES = ("2pq", "2p", "2q")
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_VERDICTS


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.ensure_newline()
        terminalreporter.section("acceptance verdicts")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.line(line)


def poly(digits):
    """A digit polynomial: uint8, index = power of x, no trailing zeros."""
    return np.trim_zeros(np.array(list(digits), dtype=np.uint8), "b")


def mul(a, b):
    """a * b in GF(4), read off gf4's table."""
    return int(gf4.MUL_TABLE[a, b])


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
    cyclotomy.HELD = cyclotomy._HeldSystems(limits.HELD_POSITIONS)


def memos():
    """Every functools memo that cells, cyclotomy, extfield and numtheory
    define, found as CI's memo printout finds them: a module attribute
    with cache_clear, made in that module."""
    return [memo for module in (cells, cyclotomy, extfield, numtheory)
            for memo in vars(module).values()
            if callable(getattr(memo, "cache_clear", None))
            and memo.__module__ == module.__name__]


def clear_held():
    """Empty every memo of the process: the painted systems, with the
    checks each keeps, the fields and every table memo of memos()."""
    fresh_held()
    for memo in memos():
        memo.cache_clear()


@pytest.fixture
def cold_builds():
    """build_system, build_extension, verify and every table memo hold
    nothing, so the test's first build of each system paints it, its first
    field and table are built and its first verify checks, through any
    patch the test has made, whatever ran before it."""
    clear_held()


def benchmark_systems():
    """The analyze-ladder and verify-grid systems of perfbench/systems.py."""
    saved = list(sys.path)
    sys.path.insert(0, PERFBENCH)
    try:
        systems = importlib.import_module("systems")
    finally:
        sys.path[:] = saved
    return systems.LADDER + systems.VERIFY_GRID
