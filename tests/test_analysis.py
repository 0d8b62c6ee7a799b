"""Berlekamp-Massey, gcd complexity, and their cross-checks."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloseq import gf4
from cycloseq.analysis import (analyze_degenerate, analyze_symbols,
                               berlekamp_massey, degenerate_lower_bound,
                               lc_via_gcd, methods_consistent, verify_theorem)
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


def _textbook_bm(s):
    """Massey's algorithm step by step on uint8 digits, O(n^2).

    Each discrepancy is an inner product through MUL_TABLE and each update
    a dense MUL_TABLE scaling, so it shares no code with the kernel.
    """
    s = np.asarray(s, dtype=np.uint8)
    size = len(s)
    conn = np.zeros(size + 1, dtype=np.uint8)
    prev = np.zeros(size + 1, dtype=np.uint8)
    conn[0] = prev[0] = 1
    length, shift, b = 0, 1, 1
    for t in range(size):
        d = int(np.bitwise_xor.reduce(
            MUL_TABLE[conn[:length + 1], s[t - length:t + 1][::-1]]))
        if d == 0:
            shift += 1
            continue
        coef = int(MUL_TABLE[d, gf4.gf4_inv(b)])
        old = conn.copy()
        conn[shift:] ^= MUL_TABLE[coef, prev[:size + 1 - shift]]
        if 2 * length <= t:
            length, prev, b, shift = t + 1 - length, old, d, 1
        else:
            shift += 1
    return length, gf4.poly_trim(conn)


def _assert_matches_textbook(s):
    lc, conn = berlekamp_massey(s)
    lc_ref, conn_ref = _textbook_bm(s)
    assert lc == lc_ref
    assert conn.dtype == np.uint8 and np.array_equal(conn, conn_ref)


DIGITS = st.integers(0, 3)


@st.composite
def bm_inputs(draw):
    """Random, zero-prefixed, tiled (period 1..40) or all-zero arrays."""
    kind = draw(st.sampled_from(("random", "zero prefix", "tiled", "zero")))
    if kind == "random":
        digits = draw(st.lists(DIGITS, max_size=120))
    elif kind == "zero prefix":
        digits = ([0] * draw(st.integers(1, 40))
                  + draw(st.lists(DIGITS, max_size=80)))
    elif kind == "tiled":
        block = draw(st.lists(DIGITS, min_size=1, max_size=40))
        digits = (block * 4)[:draw(st.integers(len(block), 4 * len(block)))]
    else:
        digits = [0] * draw(st.integers(0, 80))
    return np.array(digits, dtype=np.uint8)


@settings(deadline=None, max_examples=400)
@given(bm_inputs())
def test_bm_matches_textbook_property(s):
    _assert_matches_textbook(s)


def test_bm_zero_run_lengths():
    for k in range(1, 12):
        # impulse: the zero run to the end needs no further change
        lc, conn = berlekamp_massey([1] + [0] * k)
        assert lc == 1 and gf4.poly_eq(conn, gf4.poly([1]))
        # k zeros then a symbol: only a register of length k + 1 has it
        lc, conn = berlekamp_massey([0] * k + [2])
        assert lc == k + 1
        assert gf4.poly_eq(conn, gf4.poly([1] + [0] * k + [2]))
        # a zero run in the middle, skipped in one step
        _assert_matches_textbook([3] + [0] * k + [1, 2])
        _assert_matches_textbook([1, 2] + [0] * k + [3] + [0] * k + [2])


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


def connection_reciprocal(length, conn):
    """x^L C(1/x): the annihilator form of the BM recurrence.

    Applying it as a shift-operator polynomial sends every window of the
    sequence to zero; the minimal polynomial in lc_via_gcd's quotient
    convention is its reversal.
    """
    padded = np.zeros(length + 1, dtype=np.uint8)
    padded[:len(conn)] = conn
    return gf4.poly_trim(padded[::-1].copy())


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
    conn = MUL_TABLE[gf4.gf4_inv(int(minpoly[0])), minpoly]
    assert _generates(report.lc_gcd, conn, np.tile(s, 2))


def test_lc_via_gcd_checks_the_division(monkeypatch):
    # all ones, P = 6: G_1 = x^3 + 1 and G_2 = x^2 + x + 1, so the route
    # divides x^6 - 1 by their product; corrupt only that division's
    # remainder, not the divisions inside the gcds
    period = 6
    real = gf4.divmod_planes

    def bad_divmod(a1, a0, b1, b0):
        quot, r1, r0 = real(a1, a0, b1, b0)
        if (a1, a0) == (0, 1 << period | 1):
            r0 ^= 1
        return quot, r1, r0

    assert lc_via_gcd([1] * period)[0] == 1
    monkeypatch.setattr(gf4, "divmod_planes", bad_divmod)
    with pytest.raises(MethodDisagreement):
        lc_via_gcd([1] * period)


def _lc_via_unfolded_gcd(symbols):
    """The direct route: Euclid on x^P - 1 and S(x), then one division.

    lc_via_gcd folds this into gcds of degree <= N; this is the reference
    it must reproduce.
    """
    period = len(symbols)
    big = gf4.x_pow_n_minus_1(period)
    spoly = gf4.poly_trim(np.array(symbols, dtype=np.uint8))
    common = gf4.poly_gcd(big, spoly) if len(spoly) else big
    quotient, rem = gf4.poly_divmod(big, common)
    assert not len(rem)
    return period - gf4.poly_deg(common), gf4.poly_monic(quotient)


def _assert_same_route_answer(symbols):
    lc, minpoly = lc_via_gcd(symbols)
    lc_ref, minpoly_ref = _lc_via_unfolded_gcd(symbols)
    assert lc == lc_ref
    assert minpoly.dtype == np.uint8
    assert np.array_equal(minpoly, minpoly_ref)
    return lc, minpoly


# one pair per (p mod 8, q mod 8) class, then prime-power systems
FOLD_SYSTEMS = tuple(
    (p, q, 1, 1) for p, q in (
        (17, 41), (17, 3), (17, 5), (17, 7), (3, 17), (3, 11), (3, 5),
        (3, 7), (5, 17), (5, 3), (5, 13), (5, 7), (7, 17), (7, 3), (7, 5),
        (7, 23))) + ((3, 5, 2, 1), (3, 5, 1, 2), (5, 7, 2, 2))
ALL_MAPPINGS = tuple(Mapping(*perm, e)
                     for perm in itertools.permutations(range(4))
                     for e in (1, 2, 3))


@pytest.mark.parametrize("params", FOLD_SYSTEMS,
                         ids=lambda params: ",".join(map(str, params)))
def test_folded_route_matches_unfolded_on_all_mappings(params):
    system = build_system(*params)
    half = gf4.x_pow_n_minus_1(system.half_period)
    multiplicities = set()
    for mapping in ALL_MAPPINGS:
        seq = build_sequence(system, mapping, allow_degenerate=True)
        lc, minpoly = _assert_same_route_answer(seq.symbols)
        # x^P - 1 = F^2 with F = x^N - 1: a factor of F missing from the
        # minimal polynomial is a double root of S, one that divides it
        # once is a simple root
        if lc < seq.period:
            double = gf4.poly_deg(gf4.poly_gcd(minpoly, half)) < len(half) - 1
            multiplicities.add(2 if double else 1)
    assert len(ALL_MAPPINGS) == 72
    # on (3,5) towers both the one-gcd and the two-gcd exits are taken
    if params[:2] == (3, 5):
        assert multiplicities == {1, 2}


@pytest.mark.parametrize("params", [(3, 5, 1, 1), (3, 7, 1, 1),
                                    (7, 23, 1, 1)],
                         ids=lambda params: ",".join(map(str, params)))
def test_bm_early_exit_on_all_mappings(params):
    # BM on two periods stops once no discrepancy is left, after about
    # 2 LC symbols; a reduced LC stops well before the end
    system = build_system(*params)
    reduced = 0
    for mapping in ALL_MAPPINGS:
        seq = build_sequence(system, mapping, allow_degenerate=True)
        lc, minpoly = lc_via_gcd(seq.symbols)
        lc_bm, conn = berlekamp_massey(np.tile(seq.symbols, 2))
        assert lc_bm == lc
        assert np.array_equal(gf4.poly_monic(conn), minpoly)
        reduced += lc < seq.period
    assert reduced


@st.composite
def folded_inputs(draw):
    """One period P = 2^a N, a <= 6: random, tiled, constant or zero.

    A block of length P / 2^b repeated 2^b times is B(x)(x^L - 1)^(2^b - 1)
    with L = P / 2^b, so every root of x^L - 1 that B misses has
    multiplicity at least 2^b - 1 in S.
    """
    twos = draw(st.integers(0, 6))
    period = draw(st.sampled_from((1, 3, 5, 7, 9, 15))) << twos
    tiles = 1 << draw(st.integers(0, twos))
    size = period // tiles
    block = draw(st.one_of(
        st.lists(st.integers(0, 3), min_size=size, max_size=size),
        st.integers(0, 3).map(lambda c: [c] * size)))
    return np.tile(np.array(block, dtype=np.uint8), tiles)


@settings(deadline=None, max_examples=300)
@given(folded_inputs())
def test_folded_route_matches_unfolded_property(symbols):
    _assert_same_route_answer(symbols)


def test_folded_route_multiplicities():
    # P = 4 * 3: zero has every G_j = x^3 - 1, all four of them
    zero = np.zeros(12, dtype=np.uint8)
    lc, minpoly = lc_via_gcd(zero)
    assert lc == 0 and gf4.poly_eq(minpoly, gf4.poly([1]))
    # constant of period 8: S = c (x^8 - 1)/(x - 1) = c (x + 1)^7
    lc, minpoly = lc_via_gcd(np.full(8, 3, dtype=np.uint8))
    assert lc == 1 and gf4.poly_eq(minpoly, gf4.poly([1, 1]))
    # impulse of period 8: S = 1, so the minimal polynomial is x^8 - 1
    lc, minpoly = lc_via_gcd(np.eye(1, 8, dtype=np.uint8)[0])
    assert lc == 8 and gf4.poly_eq(minpoly, gf4.x_pow_n_minus_1(8))
    # s_t = t mod 2 over period 4: S = x (x^4 - 1)/(x^2 - 1) = x (x + 1)^2
    lc, minpoly = lc_via_gcd([0, 1, 0, 1])
    assert lc == 2 and gf4.poly_eq(minpoly, gf4.poly([1, 0, 1]))


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
    assert rep.lc_gcd >= rep.lower_bound and rep.lower_bound == 12
    # valid mapping with a vanishing regime also counts as degenerate
    rep = analyze_degenerate(sys21, Mapping(0, 3, 1, 2, 1))
    assert rep.violations == () and rep.reduced
    assert rep.lc_gcd == 36


def test_analyze_degenerate_rejections(sys15):
    with pytest.raises(InvalidMapping):
        analyze_degenerate(sys15, Mapping(2, 2, 1, 0, 3))
    with pytest.raises(InvalidParams):
        analyze_degenerate(sys15, DEFAULT_MAPPING)
