"""Berlekamp-Massey, gcd complexity, and their cross-checks."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloseq import gf4
from cycloseq.analysis import (analyze_degenerate, analyze_symbols,
                               berlekamp_massey, connection_reciprocal,
                               degenerate_lower_bound, lc_via_gcd,
                               methods_consistent, verify_theorem)
from cycloseq.cyclotomy import build_system
from cycloseq.errors import (InvalidMapping, InvalidParams,
                             MethodDisagreement, TheoremViolation)
from cycloseq.gf4 import MUL_TABLE
from cycloseq.sequence import DEFAULT_MAPPING, Mapping, build_sequence


@pytest.fixture(scope="module")
def sys15():
    return build_system(3, 5, 1, 1)


@pytest.fixture(scope="module")
def sys21():
    return build_system(3, 7, 1, 1)


def test_bm_small_cases():
    lc, conn = berlekamp_massey([])
    assert lc == 0 and gf4.poly_eq(conn, gf4.poly([1]))
    lc, conn = berlekamp_massey([0, 0, 0, 0])
    assert lc == 0 and gf4.poly_eq(conn, gf4.poly([1]))
    # impulse: one-stage register with zero feedback
    lc, conn = berlekamp_massey([1, 0, 0, 0])
    assert lc == 1 and gf4.poly_eq(conn, gf4.poly([1]))
    # constant: s_t = s_{t-1}
    lc, conn = berlekamp_massey([1, 1, 1, 1, 1, 1])
    assert lc == 1 and gf4.poly_eq(conn, gf4.poly([1, 1]))
    # geometric in alpha: s_t = alpha s_{t-1}
    lc, conn = berlekamp_massey([1, 2, 3, 1, 2, 3])
    assert lc == 1 and gf4.poly_eq(conn, gf4.poly([1, 2]))


def test_bm_recurrence_holds():
    rng = random.Random(901)
    for _ in range(150):
        size = rng.randrange(2, 40)
        s = np.array([rng.randrange(4) for _ in range(size)], dtype=np.uint8)
        lc, conn = berlekamp_massey(s)
        assert gf4.poly_deg(conn) <= lc
        assert int(conn[0]) == 1
        for t in range(lc, size):
            acc = int(s[t])
            for i in range(1, min(lc, len(conn) - 1) + 1):
                if i < len(conn):
                    acc ^= gf4.gf4_mul(int(conn[i]), int(s[t - i]))
            assert acc == 0


def _generates(length, conn, s):
    """True when s_t = sum_{i>=1} C_i s_{t-i} for every length <= t < len(s).

    Dense uint8 arithmetic only, so it checks the bit-plane kernels from
    outside.
    """
    assert int(conn[0]) == 1 and len(conn) - 1 <= length
    acc = s[length:].copy()
    for i in range(1, len(conn)):
        acc ^= MUL_TABLE[conn[i], s[length - i: len(s) - i]]
    return not acc.any()


def _brute_force_lengths(n):
    """Every GF(4) sequence of length n, and its shortest LFSR length.

    Tries every connection polynomial C_1..C_L of every length L < n;
    L = n needs no check, since then no recurrence constraint applies.
    """
    seqs = np.array(list(itertools.product(range(4), repeat=n)),
                    dtype=np.uint8).reshape(4**n, n)
    lengths = np.full(len(seqs), n)
    for length in range(n - 1, -1, -1):
        regs = np.array(list(itertools.product(range(4), repeat=length)),
                        dtype=np.uint8).reshape(4**length, length)
        ok = np.ones((len(seqs), len(regs)), dtype=bool)
        for t in range(length, n):
            pred = np.zeros(ok.shape, dtype=np.uint8)
            for i in range(1, length + 1):
                pred ^= MUL_TABLE[regs[None, :, i - 1], seqs[:, None, t - i]]
            ok &= pred == seqs[:, None, t]
        lengths[ok.any(axis=1)] = length
    return seqs, lengths


def test_bm_exhaustive_short_sequences():
    checked = 0
    for n in range(7):
        seqs, lengths = _brute_force_lengths(n)
        for s, expected in zip(seqs, lengths):
            lc, conn = berlekamp_massey(s)
            assert lc == expected, s
            assert _generates(lc, conn, s), s
            checked += 1
    assert checked == 5461


def test_lc_via_gcd_small_cases():
    lc, mp = lc_via_gcd([0, 0, 0, 0, 0])
    assert lc == 0 and gf4.poly_eq(mp, gf4.poly([1]))
    # constant nonzero of odd period: minimal polynomial is x + 1
    lc, mp = lc_via_gcd([2, 2, 2, 2, 2])
    assert lc == 1 and gf4.poly_eq(mp, gf4.poly([1, 1]))
    with pytest.raises(InvalidParams):
        lc_via_gcd([])
    with pytest.raises(InvalidParams):
        lc_via_gcd([0, 4])


def test_methods_agree_random_periods():
    rng = random.Random(902)
    for _ in range(120):
        period = rng.choice([3, 5, 7, 9, 15, 21, 33])
        s = np.array([rng.randrange(4) for _ in range(period)],
                     dtype=np.uint8)
        lc_g, mp = lc_via_gcd(s)
        lc_b, conn = berlekamp_massey(np.tile(s, 2))
        assert methods_consistent(lc_b, conn, lc_g, mp)
        # the minimal polynomial divides x^P - 1
        _, rem = gf4.poly_divmod(gf4.x_pow_n_minus_1(period), mp)
        assert gf4.poly_is_zero(rem)


def test_connection_reciprocal_annihilates():
    rng = random.Random(903)
    for _ in range(60):
        period = rng.choice([5, 7, 9, 15])
        s = np.array([rng.randrange(4) for _ in range(period)],
                     dtype=np.uint8)
        doubled = np.tile(s, 2)
        lc, conn = berlekamp_massey(doubled)
        rec = connection_reciprocal(lc, conn)
        # rec applied as a shift operator maps every window to zero
        for start in range(len(doubled) - lc):
            acc = 0
            for i, coef in enumerate(rec):
                acc ^= gf4.gf4_mul(int(coef), int(doubled[start + i]))
            assert acc == 0


@settings(deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=300))
def test_analyze_symbols_random_periods(digits):
    s = np.array(digits, dtype=np.uint8)
    report = analyze_symbols(s)
    minpoly = report.minimal_polynomial
    assert report.lc_bm == report.lc_gcd == gf4.poly_deg(minpoly)
    # scaled to constant term 1, the minimal polynomial is the connection
    # polynomial of the periodic sequence
    conn = gf4.poly_scale(minpoly, gf4.gf4_inv(int(minpoly[0])))
    assert _generates(report.lc_gcd, conn, np.tile(s, 2))


def test_lc_via_gcd_checks_the_division(monkeypatch):
    def bad_divmod(a, b):
        return gf4.poly([1]), gf4.poly([1])
    monkeypatch.setattr(gf4, "poly_divmod", bad_divmod)
    with pytest.raises(MethodDisagreement):
        lc_via_gcd([1, 2, 3])


def test_bm_rejects_non_field_symbols():
    with pytest.raises(InvalidParams):
        berlekamp_massey([0, 4])


def test_methods_consistent_negatives():
    assert not methods_consistent(3, gf4.poly([1, 1]), 4, gf4.poly([1, 1]))
    assert not methods_consistent(1, gf4.poly([1, 2]), 1, gf4.poly([1, 1]))
    assert methods_consistent(1, gf4.poly([2, 2]), 1, gf4.poly([1, 1]))


def test_example_complexities(sys15, sys21):
    r = analyze_symbols(build_sequence(sys15).symbols)
    assert r.lc_bm == r.lc_gcd == 30
    assert r.methods_agree and r.theorem_holds
    r = analyze_symbols(build_sequence(sys21).symbols)
    assert r.lc_gcd == 42 and r.theorem_holds
    d = r.to_json_dict()
    assert d["lc_bm"] == 42
    assert isinstance(d["minimal_polynomial"], str)


def test_tower_complexity():
    system = build_system(3, 5, 2, 1)
    r = verify_theorem(system, strict=True)
    assert r.lc_gcd == 90


def test_verify_theorem_witness(sys21):
    # e = b + d passes the mod-8 gate but kills one spectrum regime
    witness = Mapping(0, 3, 1, 2, 1)
    r = verify_theorem(sys21, witness)
    assert not r.theorem_holds
    assert r.lc_gcd == 36
    with pytest.raises(TheoremViolation):
        verify_theorem(sys21, witness, strict=True)


def test_degenerate_lower_bound_values():
    assert degenerate_lower_bound(3, 5, 1, 1) == 12
    assert degenerate_lower_bound(3, 7, 1, 1) == 16
    assert degenerate_lower_bound(3, 5, 2, 1) == 30


def test_analyze_degenerate_paths(sys15, sys21):
    # e = b at (3,5): the measurement still reaches the full period
    rep = analyze_degenerate(sys15, Mapping(2, 3, 1, 0, 3))
    assert rep.lc_gcd == 30 and not rep.reduced
    assert rep.lower_bound == 12 and rep.violations
    # e = b + c at (3,5): genuinely reduced, floor still respected
    rep = analyze_degenerate(sys15, Mapping(2, 3, 1, 0, 2))
    assert rep.lc_gcd == 16 and rep.reduced
    assert rep.lc_gcd >= rep.lower_bound
    d = rep.to_json_dict()
    assert d["reduced"] is True and d["lower_bound"] == 12
    # valid mapping with a vanishing regime also counts as degenerate
    rep = analyze_degenerate(sys21, Mapping(0, 3, 1, 2, 1))
    assert rep.violations == () and rep.reduced
    assert rep.lc_gcd == 36


def test_analyze_degenerate_rejections(sys15):
    with pytest.raises(InvalidMapping):
        analyze_degenerate(sys15, Mapping(2, 2, 1, 0, 3))
    with pytest.raises(InvalidParams):
        analyze_degenerate(sys15, DEFAULT_MAPPING)
