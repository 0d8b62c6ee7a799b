"""Berlekamp-Massey, gcd complexity, and their cross-checks."""

import dataclasses
import functools
import itertools
import json
import operator
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_MAPPINGS, benchmark_systems, mul
from cycloseq import analysis, cells, cli, cyclotomy, gf4
from cycloseq.analysis import (analyze_degenerate, analyze_symbols,
                               berlekamp_massey, bucket_lc,
                               degenerate_lower_bound, generates,
                               lc_via_gcd, minimal_planes, verify_theorem)
from cycloseq.cells import cell_char_sums, predict_lc
from cycloseq.cyclotomy import build_system
from cycloseq.errors import (InvalidMapping, InvalidParams, LemmaViolation,
                             MethodDisagreement, TheoremViolation)
from cycloseq.extfield import build_extension
from cycloseq.gf4 import INV_TABLE, MUL_TABLE, to_planes
from cycloseq.numtheory import (build_system_constants, euler_phi,
                                is_prime, two_is_square_mod)
from cycloseq.sequence import (DEFAULT_MAPPING, Mapping, build_sequence,
                               spectrum_profile)


@pytest.fixture(scope="module")
def sys15():
    return build_system(3, 5, 1, 1)


@pytest.fixture(scope="module")
def sys21():
    return build_system(3, 7, 1, 1)


def test_bm_small_cases():
    assert berlekamp_massey([]) == 0
    assert berlekamp_massey([0, 0, 0, 0]) == 0
    # impulse: one-stage register with zero feedback
    assert berlekamp_massey([1, 0, 0, 0]) == 1
    # constant: s_t = s_{t-1}
    assert berlekamp_massey([1, 1, 1, 1, 1, 1]) == 1
    # geometric in alpha: s_t = alpha s_{t-1}
    assert berlekamp_massey([1, 2, 3, 1, 2, 3]) == 1
    # a register of length 2 is forced by the third symbol
    assert berlekamp_massey([0, 1, 0]) == 2


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
            assert berlekamp_massey(s) == expected, s
            checked += 1
    assert checked == 5461


def _textbook_bm(s):
    """Massey's algorithm step by step on uint8 digits, O(n^2): the
    length of the shortest LFSR.

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
        coef = int(MUL_TABLE[d, INV_TABLE[b]])
        old = conn.copy()
        conn[shift:] ^= MUL_TABLE[coef, prev[:size + 1 - shift]]
        if 2 * length <= t:
            length, prev, b, shift = t + 1 - length, old, d, 1
        else:
            shift += 1
    return length


def _assert_matches_textbook(s):
    assert berlekamp_massey(s) == _textbook_bm(s)


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
        assert berlekamp_massey([1] + [0] * k) == 1
        # k zeros then a symbol: only a register of length k + 1 has it
        assert berlekamp_massey([0] * k + [2]) == k + 1
        # a zero run in the middle, skipped in one step
        _assert_matches_textbook([3] + [0] * k + [1, 2])
        _assert_matches_textbook([1, 2] + [0] * k + [3] + [0] * k + [2])


def _x_pow_n_minus_1(n):
    out = np.zeros(n + 1, dtype=np.uint8)
    out[0] = out[n] = 1
    return out


def _divmod_digits(a, b):
    """Long division on uint8 digits through MUL_TABLE and INV_TABLE,
    sharing no code with gf4's plane kernels: (quotient, remainder)."""
    rem, db = a.copy(), len(b) - 1
    quot = np.zeros(max(len(a) - db, 0), dtype=np.uint8)
    scale = MUL_TABLE[INV_TABLE[b[-1]]]
    for shift in range(len(a) - 1 - db, -1, -1):
        c = scale[rem[shift + db]]
        if c:
            rem[shift: shift + db + 1] ^= MUL_TABLE[c, b]
            quot[shift] = c
    return np.trim_zeros(quot, "b"), np.trim_zeros(rem[:db], "b")


def _route_two(symbols):
    """lc_via_gcd's length and the minimal polynomial made from its
    factors, as analyze_symbols reads them."""
    lc, factors = lc_via_gcd(symbols)
    return lc, minimal_planes(symbols, factors)


def test_lc_via_gcd_small_cases():
    # zero: G_1 = x^5 - 1, and the minimal polynomial is 1
    assert lc_via_gcd([0, 0, 0, 0, 0]) == (0, (to_planes([1, 0, 0, 0, 0, 1]),))
    assert _route_two([0, 0, 0, 0, 0]) == (0, to_planes([1]))
    # constant nonzero of odd period: G_1 = (x^5 - 1) / (x - 1), and the
    # minimal polynomial is x + 1
    assert lc_via_gcd([2, 2, 2, 2, 2]) == (1, (to_planes([1] * 5),))
    assert _route_two([2, 2, 2, 2, 2]) == (1, to_planes([1, 1]))
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
        lc_g, mp = _route_two(s)
        assert berlekamp_massey(np.tile(s, 2)) == lc_g
        assert generates(s, lc_g, mp)
        # the minimal polynomial divides x^P - 1
        assert _divmod_digits(_x_pow_n_minus_1(period),
                              gf4.from_planes(*mp))[1].size == 0


@settings(deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=300))
def test_analyze_symbols_random_periods(digits):
    s = np.array(digits, dtype=np.uint8)
    report = analyze_symbols(s)
    minpoly = report.minimal_polynomial
    assert report.lc_bm == report.lc_gcd == len(minpoly) - 1
    # scaled to constant term 1, the minimal polynomial is the connection
    # polynomial of the periodic sequence
    conn = MUL_TABLE[INV_TABLE[minpoly[0]], minpoly]
    assert _generates(report.lc_gcd, conn, np.tile(s, 2))


def test_minimal_planes_checks_the_division(monkeypatch):
    # all ones, P = 6: G_1 = x^3 + 1 and G_2 = x^2 + x + 1, so
    # minimal_planes divides x^6 - 1 by their product; corrupt only that
    # division's remainder
    period = 6
    real = gf4.divmod_planes

    def bad_divmod(a1, a0, b1, b0):
        q1, q0, r1, r0 = real(a1, a0, b1, b0)
        if (a1, a0) == (0, 1 << period | 1):
            r0 ^= 1
        return q1, q0, r1, r0

    factors = (to_planes([1, 0, 0, 1]), to_planes([1, 1, 1]))
    assert lc_via_gcd([1] * period) == (1, factors)
    assert minimal_planes([1] * period, factors) == to_planes([1, 1])
    monkeypatch.setattr(gf4, "divmod_planes", bad_divmod)
    # lc_via_gcd divides nothing, so only minimal_planes sees the fault
    assert lc_via_gcd([1] * period) == (1, factors)
    with pytest.raises(MethodDisagreement):
        minimal_planes([1] * period, factors)
    with pytest.raises(MethodDisagreement):
        analyze_symbols([1] * period)


def _lc_via_unfolded_gcd(symbols):
    """The direct route: Euclid on x^P - 1 and S(x), then one division.

    lc_via_gcd folds this into gcds of degree <= N; this is the reference
    it must reproduce, on uint8 digits rather than gf4's planes.
    """
    period = len(symbols)
    big = _x_pow_n_minus_1(period)
    common, other = big, np.trim_zeros(np.array(symbols, dtype=np.uint8), "b")
    while len(other):
        common, other = other, _divmod_digits(common, other)[1]
    quotient, rem = _divmod_digits(big, common)
    assert not len(rem)
    # the quotient's leading digit is 1 / common's
    return period - (len(common) - 1), MUL_TABLE[common[-1], quotient]


def _assert_same_route_answer(symbols):
    lc, factors = lc_via_gcd(symbols)
    minpoly = minimal_planes(symbols, factors)
    lc_ref, minpoly_ref = _lc_via_unfolded_gcd(symbols)
    assert (lc, minpoly) == (lc_ref, to_planes(minpoly_ref))
    # monic factors, each dividing the one before it
    assert all(g0.bit_length() > g1.bit_length() for g1, g0 in factors)
    for big, small in zip(factors, factors[1:]):
        assert gf4.divmod_planes(*big, *small)[2:] == (0, 0)
    return lc, minpoly


# one pair per (p mod 8, q mod 8) class, then prime-power systems
FOLD_SYSTEMS = tuple(
    (p, q, 1, 1) for p, q in (
        (17, 41), (17, 3), (17, 5), (17, 7), (3, 17), (3, 11), (3, 5),
        (3, 7), (5, 17), (5, 3), (5, 13), (5, 7), (7, 17), (7, 3), (7, 5),
        (7, 23))) + ((3, 5, 2, 1), (3, 5, 1, 2), (5, 7, 2, 2))


@pytest.mark.parametrize("params", FOLD_SYSTEMS,
                         ids=lambda params: ",".join(map(str, params)))
def test_folded_route_matches_unfolded_on_all_mappings(params):
    system = build_system(*params)
    half = (0, 1 << system.half_period | 1)
    multiplicities = set()
    for mapping in ALL_MAPPINGS:
        seq = build_sequence(system, mapping, allow_degenerate=True)
        lc, minpoly = _assert_same_route_answer(seq.symbols)
        # x^P - 1 = F^2 with F = x^N - 1: a factor of F missing from the
        # minimal polynomial is a double root of S, one that divides it
        # once is a simple root
        if lc < seq.period:
            double = gf4.gcd_planes(*minpoly, *half) != half
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
        lc, minpoly = _route_two(seq.symbols)
        assert berlekamp_massey(np.tile(seq.symbols, 2)) == lc
        assert generates(seq.symbols, lc, minpoly)
        reduced += lc < seq.period
    assert reduced


@st.composite
def folded_inputs(draw, twos=st.integers(0, 6)):
    """One period P = 2^a N, a from twos: random, tiled, constant or zero.

    A block of length P / 2^b repeated 2^b times is B(x)(x^L - 1)^(2^b - 1)
    with L = P / 2^b, so every root of x^L - 1 that B misses has
    multiplicity at least 2^b - 1 in S.
    """
    twos = draw(twos)
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


@settings(deadline=None, max_examples=200)
@given(folded_inputs(st.integers(2, 3)))
def test_lc_via_gcd_matches_bm_at_four_and_eight_times_odd(symbols):
    # the fold over 2^a > 2 blocks, which no CLI period (2N, N odd) reaches
    lc, minpoly = _route_two(symbols)
    assert berlekamp_massey(np.tile(symbols, 2)) == lc
    assert generates(symbols, lc, minpoly)


def _fold_bm(symbols):
    """(BM on two periods of the N-periodic fold, N): the fold XORs the
    P / N blocks of length N, N the odd part of P."""
    s = np.asarray(symbols, dtype=np.uint8)
    odd = len(s)
    while odd % 2 == 0:
        odd //= 2
    fold = np.zeros(odd, dtype=np.uint8)
    for start in range(0, len(s), odd):
        fold ^= s[start:start + odd]
    return berlekamp_massey(np.tile(fold, 2)), odd


@st.composite
def fold_criterion_inputs(draw):
    """One period P = 2^a N, a = 0..3: random or constant (zero
    included), with one digit flipped or not, so full and near-full LC
    both occur."""
    period = draw(st.sampled_from((1, 3, 5, 7, 9, 15, 21))) << draw(
        st.integers(0, 3))
    kind = draw(st.sampled_from(("random", "constant")))
    if kind == "random":
        s = np.array(draw(st.lists(st.integers(0, 3), min_size=period,
                                   max_size=period)), dtype=np.uint8)
    else:
        s = np.full(period, draw(st.integers(0, 3)), dtype=np.uint8)
    if draw(st.booleans()):
        s[draw(st.integers(0, period - 1))] ^= draw(st.integers(1, 3))
    return s


@settings(deadline=None, max_examples=400)
@given(fold_criterion_inputs())
def test_fold_criterion_decides_full_lc(symbols):
    # LC = P exactly when the fold reaches its full length N, and BM on
    # the fold, then on two periods, gives the LC of two periods
    lc = berlekamp_massey(np.tile(symbols, 2))
    fold_lc, odd = _fold_bm(symbols)
    assert (fold_lc == odd) == (lc == len(symbols))
    assert analyze_symbols(symbols).lc_bm == lc


def test_fold_criterion_on_every_constant_and_flip():
    # both sides of the criterion at a = 0..3: a constant folds to zero
    # at even P; with one flipped digit it is full at even P, and at odd P
    # one short of full when the flip cancels S(1)
    seen = set()
    for period in (3, 5, 6, 10, 12, 20, 24, 40):
        for c, at, v in itertools.product(range(4), (0, period - 1),
                                          range(4)):
            s = np.full(period, c, dtype=np.uint8)
            s[at] ^= v
            lc = analyze_symbols(s).lc_bm
            assert lc == berlekamp_massey(np.tile(s, 2))
            full = lc == period
            fold_lc, odd = _fold_bm(s)
            assert (fold_lc == odd) == full
            seen.add((period % 2, full))
    assert seen == {(0, True), (0, False), (1, True), (1, False)}


@pytest.mark.parametrize("params", FOLD_SYSTEMS,
                         ids=lambda params: ",".join(map(str, params)))
def test_fold_criterion_matches_predict_lc(params):
    system = build_system(*params)
    full = 0
    for mapping in ALL_MAPPINGS:
        seq = build_sequence(system, mapping, allow_degenerate=True)
        fold_lc, odd = _fold_bm(seq.symbols)
        assert odd == system.half_period
        at_full = predict_lc(system.constants, mapping) == seq.period
        assert (fold_lc == odd) == at_full, mapping
        full += at_full
    assert 0 < full < len(ALL_MAPPINGS)


def _bm_spy(monkeypatch, answer=None):
    """Record the length of each BM input; where answer(symbols) returns
    an int, it replaces BM's result."""
    calls, real = [], analysis.berlekamp_massey

    def spy(symbols):
        calls.append(len(symbols))
        forced = answer(symbols) if answer else None
        return real(symbols) if forced is None else forced

    monkeypatch.setattr(analysis, "berlekamp_massey", spy)
    return calls


def test_fold_bm_branches_are_live(sys15, sys21, monkeypatch):
    reduced = build_sequence(sys21, Mapping(0, 1, 2, 3, 2),
                             allow_degenerate=True).symbols
    full = build_sequence(sys15).symbols
    # a fold BM that claims N on a reduced sequence gives LC = P, which
    # the gcd route's 36 refutes
    calls = _bm_spy(monkeypatch,
                    lambda s: 21 if len(s) == 42 else None)
    with pytest.raises(MethodDisagreement, match="BM found 42, gcd found 36"):
        analyze_symbols(reduced)
    assert calls == [42]
    # a fold BM one short of N on a full sequence falls back to two
    # periods, which agree at P
    calls = _bm_spy(monkeypatch, lambda s: 14 if len(s) == 30 else None)
    report = analyze_symbols(full)
    assert report.lc_bm == report.lc_gcd == 30 and report.theorem_holds
    assert calls == [30, 60]


def test_odd_period_runs_one_bm(monkeypatch):
    # at odd P the fold is s itself, and its BM is the answer at any LC
    calls = _bm_spy(monkeypatch)
    for s, lc in (([1, 0, 0, 0, 0], 5), ([2] * 5, 1), ([0] * 7, 0),
                  ([1, 1, 0, 1, 0, 0, 0], 4)):
        calls.clear()
        assert analyze_symbols(s).lc_bm == lc
        assert calls == [2 * len(s)]


def test_fold_bm_at_a_period_no_cli_test_reaches(monkeypatch):
    # P = 913 066 at full LC: one BM, on the 913 066 symbols of two
    # periods of the fold
    seq = build_sequence(build_system(7, 11, 3, 3))
    calls = _bm_spy(monkeypatch)
    report = analyze_symbols(seq.symbols)
    assert report.lc_bm == report.lc_gcd == seq.period == 913066
    assert calls == [913066]


def test_folded_route_multiplicities():
    # P = 4 * 3: zero has every G_j = x^3 - 1, all four of them
    zero = np.zeros(12, dtype=np.uint8)
    assert lc_via_gcd(zero) == (0, (to_planes([1, 0, 0, 1]),) * 4)
    assert _route_two(zero) == (0, to_planes([1]))
    # constant of period 8: S = c (x^8 - 1)/(x - 1) = c (x + 1)^7, so
    # G_1 .. G_7 are x + 1
    const = np.full(8, 3, dtype=np.uint8)
    assert lc_via_gcd(const) == (1, (to_planes([1, 1]),) * 7)
    assert _route_two(const) == (1, to_planes([1, 1]))
    # impulse of period 8: S = 1, so G_1 = 1 and the minimal polynomial
    # is x^8 - 1
    impulse = np.eye(1, 8, dtype=np.uint8)[0]
    assert lc_via_gcd(impulse) == (8, ())
    assert _route_two(impulse) == (8, to_planes(_x_pow_n_minus_1(8)))
    # s_t = t mod 2 over period 4: S = x (x^4 - 1)/(x^2 - 1) = x (x + 1)^2
    assert lc_via_gcd([0, 1, 0, 1]) == (2, (to_planes([1, 1]),) * 2)
    assert _route_two([0, 1, 0, 1]) == (2, to_planes([1, 0, 1]))


def test_bm_rejects_non_field_symbols():
    with pytest.raises(InvalidParams):
        berlekamp_massey([0, 4])


def test_generates_negatives():
    ones = np.ones(5, dtype=np.uint8)
    x1 = to_planes([1, 1])
    assert generates(ones, 1, x1)
    # (x + 1) m, x^2 + m and a scalar multiple of m, each claimed at LC 1
    assert not generates(ones, 1, to_planes([1, 0, 1]))
    assert not generates(ones, 1, to_planes([1, 1, 1]))
    assert not generates(ones, 1, to_planes([2, 2]))
    # m claimed at the wrong length
    assert not generates(ones, 2, x1)
    assert not generates(ones, 0, x1)
    # the zero sequence: 1 at LC 0, and nothing else
    zero = np.zeros(4, dtype=np.uint8)
    assert generates(zero, 0, to_planes([1]))
    assert not generates(zero, 0, to_planes([2]))
    assert not generates(zero, 0, x1)
    # the forced x^P + 1 at LC = P, and its neighbours
    impulse = np.eye(1, 7, dtype=np.uint8)[0]
    assert generates(impulse, 7, to_planes(_x_pow_n_minus_1(7)))
    assert not generates(impulse, 7, to_planes([0] * 7 + [1]))
    assert not generates(impulse, 7, to_planes([1] + [0] * 6 + [3]))
    assert not generates(impulse, 6, to_planes(_x_pow_n_minus_1(7)))


def _monic_candidates(degree):
    """The gf4 planes of every monic polynomial of the given degree."""
    for low in itertools.product(range(4), repeat=degree):
        yield to_planes(np.array(low + (1,), dtype=np.uint8))


def test_generates_only_the_minimal_polynomial():
    # every sequence of period <= 4 against every monic polynomial of
    # degree LC, zero constant terms included: only lc_via_gcd's passes
    candidates = 0
    for period in range(1, 5):
        for s in itertools.product(range(4), repeat=period):
            s = np.array(s, dtype=np.uint8)
            lc, minpoly = _route_two(s)
            for planes in _monic_candidates(lc):
                assert generates(s, lc, planes) == (planes == minpoly), s
                candidates += 1
    assert candidates == 54844


def test_generates_random_periods():
    # random periods 5..33, most with 2 LC > P, where the window of 2 LC
    # terms wraps round the period; tiled blocks give 2 LC <= P
    rng = random.Random(904)
    wraps = short = 0
    for _ in range(300):
        period = rng.randrange(5, 34)
        if rng.random() < 0.25:
            block = [rng.randrange(4) for _ in range(rng.randrange(1, 5))]
            s = np.resize(np.array(block, dtype=np.uint8), period)
        else:
            s = np.array([rng.randrange(4) for _ in range(period)],
                         dtype=np.uint8)
        lc, (m1, m0) = _route_two(s)
        assert berlekamp_massey(np.tile(s, 2)) == lc
        assert generates(s, lc, (m1, m0))
        # what minimal_planes' no-factor return relies on: x^P - 1
        # generates every sequence of period P
        assert generates(s, period, (0, 1 << period | 1))
        wraps += 2 * lc > period
        short += 2 * lc <= period
        for t in range(lc):  # one coefficient flipped, the degree kept
            assert not generates(s, lc, (m1 ^ 1 << t, m0)), s
            assert not generates(s, lc, (m1, m0 ^ 1 << t)), s
        # a term above the window changes the degree only
        assert not generates(s, lc, (m1, m0 ^ 1 << 2 * lc))
    assert wraps > 100 and short > 20


def test_a_wrong_gcd_answer_meets_a_bm_that_disagrees(sys15, sys21,
                                                      monkeypatch):
    # a wrong length or a wrong polynomial from the gcd route raises,
    # below full period and at it
    reduced = build_sequence(sys21, Mapping(0, 1, 2, 3, 2),
                             allow_degenerate=True).symbols
    full = build_sequence(sys15).symbols
    lc, (m1, m0) = _route_two(reduced)
    assert lc == 36 < len(reduced)
    real_divmod = gf4.divmod_planes

    def claim_length(length):
        # no factor: minimal_planes returns x^P - 1, and only BM's length
        # can disagree
        monkeypatch.setattr(analysis, "lc_via_gcd", lambda s: (length, ()))

    def claim_quotient(quotient, period):
        # the division of x^P - 1 returns quotient with a zero remainder,
        # so only generates, inside minimal_planes, can object
        def divmod_planes(a1, a0, b1, b0):
            if (a1, a0) == (0, 1 << period | 1):
                return (*quotient, 0, 0)
            return real_divmod(a1, a0, b1, b0)
        monkeypatch.setattr(gf4, "divmod_planes", divmod_planes)

    claim_length(42)
    with pytest.raises(MethodDisagreement, match="BM found 36, gcd found 42"):
        analyze_symbols(reduced)
    monkeypatch.undo()
    for t in range(lc):  # one coefficient flipped, the degree kept
        for flipped in ((m1 ^ 1 << t, m0), (m1, m0 ^ 1 << t)):
            claim_quotient(flipped, 42)
            with pytest.raises(MethodDisagreement, match="does not generate"):
                analyze_symbols(reduced)
    monkeypatch.undo()
    for short in (0, 1, 15, 29):
        claim_length(short)
        with pytest.raises(MethodDisagreement,
                           match=f"BM found 30, gcd found {short}"):
            analyze_symbols(full)
    # at full period the route has no factor to divide by: it claims
    # G_1 = 1, and the division returns x^30 - 1 with one coefficient
    # flipped
    monkeypatch.setattr(analysis, "lc_via_gcd", lambda s: (30, ((0, 1),)))
    for t in (0, 1, 14, 29):
        for flipped in ((1 << t, 1 << 30 | 1), (0, (1 << 30 | 1) ^ 1 << t)):
            claim_quotient(flipped, 30)
            with pytest.raises(MethodDisagreement, match="does not generate"):
                analyze_symbols(full)


def _spy_route(monkeypatch):
    """Log each call of generates, berlekamp_massey, minimal_planes and
    gf4's product and division, in order: (name, args) as it starts and
    (name + " returned", ()) as it returns."""
    log = []
    for module, name in ((analysis, "generates"),
                         (analysis, "berlekamp_massey"),
                         (analysis, "minimal_planes"),
                         (gf4, "mul_planes"), (gf4, "divmod_planes")):
        def spy(*args, _real=getattr(module, name), _name=name):
            log.append((_name, args))
            result = _real(*args)
            log.append((_name + " returned", ()))
            return result
        monkeypatch.setattr(module, name, spy)
    return log


def test_full_lc_forms_and_checks_no_minimal_polynomial(monkeypatch,
                                                        tmp_path, capsys):
    # at full LC the minimal polynomial is x^P - 1, which generates every
    # sequence of period P: analyze_symbols calls no generates, and no
    # product or division has x^P - 1 as an operand. Every benchmark
    # system at the default mapping, and a random file of 2 * 5 005
    # symbols through analyze --file
    rng = np.random.default_rng(52)
    path = tmp_path / "random.txt"
    path.write_text("".join(map(str, rng.integers(0, 4, 10010))) + "\n")
    log = _spy_route(monkeypatch)

    def formed_nothing(period):
        top = 1 << period | 1
        names = [name for name, _ in log]
        return ("generates" not in names
                and names.count("minimal_planes") == 1
                and not any(top in args for name, args in log
                            if name in ("mul_planes", "divmod_planes")))

    for params in benchmark_systems():
        s = build_sequence(build_system(*params)).symbols
        log.clear()
        assert analyze_symbols(s).lc_gcd == len(s), params
        assert formed_nothing(len(s)), params
    log.clear()
    assert cli.main(["analyze", "--file", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["lc_gcd"] == 10010
    assert formed_nothing(10010)


@pytest.mark.parametrize("params, mapping", [
    ((3, 5, 4, 3), Mapping(0, 2, 3, 1, 1)),
    ((61, 79, 1, 1), Mapping(0, 1, 2, 3, 2))],
    ids=["3,5,4,3", "61,79,1,1"])
def test_below_full_lc_minimal_planes_certifies_before_bm(monkeypatch,
                                                          params, mapping):
    # below full LC, generates runs once, inside minimal_planes, and
    # before BM's first run
    seq = build_sequence(build_system(*params), mapping,
                         allow_degenerate=True)
    log = _spy_route(monkeypatch)
    report = analyze_symbols(seq.symbols)
    assert report.lc_gcd < seq.period
    events = [name for name, _ in log if not name.startswith(
        ("mul_planes", "divmod_planes", "generates returned"))]
    assert events == ["minimal_planes", "generates",
                      "minimal_planes returned",
                      "berlekamp_massey", "berlekamp_massey returned",
                      "berlekamp_massey", "berlekamp_massey returned"]


def test_example_complexities(sys15, sys21):
    r = analyze_symbols(build_sequence(sys15).symbols)
    assert r.lc_bm == r.lc_gcd == 30
    assert r.methods_agree and r.theorem_holds
    r = analyze_symbols(build_sequence(sys21).symbols)
    assert r.lc_gcd == 42 and r.theorem_holds
    d = r.to_json_dict()
    assert d["lc_bm"] == 42
    assert isinstance(d["minimal_polynomial"], str)


def test_report_makes_digits_only_when_read(sys21, monkeypatch):
    calls = []
    real = gf4.from_planes
    monkeypatch.setattr(gf4, "from_planes",
                        lambda *planes: calls.append(planes) or real(*planes))
    r = analyze_symbols(build_sequence(sys21).symbols)
    assert calls == []
    assert len(r.minimal_polynomial) - 1 == r.lc_gcd == 42
    assert r.to_json_dict()["minimal_polynomial"] == \
        gf4.poly_to_digits(r.minimal_polynomial)
    assert calls == [r.minimal_planes] * 3


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
    assert rep.lc == 30 == sys15.period
    assert rep.lower_bound == 12 and rep.violations
    # e = b + c at (3,5): genuinely reduced, floor still respected
    rep = analyze_degenerate(sys15, Mapping(2, 3, 1, 0, 2))
    assert rep.lc == 16 < sys15.period
    assert rep.lc >= rep.lower_bound and rep.lower_bound == 12
    # valid mapping with a vanishing regime also counts as degenerate
    rep = analyze_degenerate(sys21, Mapping(0, 3, 1, 2, 1))
    assert rep.violations == ()
    assert rep.lc == 36 < sys21.period


def test_analyze_degenerate_rejections(sys15):
    with pytest.raises(InvalidMapping):
        analyze_degenerate(sys15, Mapping(2, 2, 1, 0, 3))
    with pytest.raises(InvalidParams):
        analyze_degenerate(sys15, DEFAULT_MAPPING)


# one pair per (p mod 8, q mod 8) class, as in the sweep benchmark
CLASS_PAIRS = ((17, 41), (17, 3), (17, 5), (17, 7), (7, 17), (7, 3), (7, 5),
               (7, 23), (3, 17), (3, 11), (3, 5), (3, 7), (5, 17), (5, 3),
               (5, 13), (5, 7))


def test_class_pairs_cover_every_class():
    assert len({(p % 8, q % 8) for p, q in CLASS_PAIRS}) == 16
    assert len(ALL_MAPPINGS) == 72


@pytest.mark.parametrize("params", [(p, q, 1, 1) for p, q in CLASS_PAIRS] + [
    (3, 5, 2, 1), (3, 5, 1, 2), (3, 5, 2, 2), (7, 17, 2, 1), (7, 17, 1, 2),
    (17, 3, 2, 1), (3, 17, 1, 2), (5, 7, 2, 2), (7, 3, 2, 2), (3, 5, 4, 3)],
    ids=str)
def test_predict_lc_equals_the_gcd_route(params):
    # and so does the bucket basis, measured off the paint
    system = build_system(*params)
    for mapping in ALL_MAPPINGS:
        seq = build_sequence(system, mapping, allow_degenerate=True)
        predicted = predict_lc(system.constants, mapping)
        assert type(predicted) is int
        assert predicted == lc_via_gcd(seq.symbols)[0], mapping
        assert bucket_lc(system, mapping) == predicted, mapping


def test_predict_lc_sums_each_cell_once(monkeypatch):
    # the family sums are worked out once per cell of the system, however
    # many mappings are predicted
    calls, real = [], cells.cell_char_sums
    monkeypatch.setattr(cells, "cell_char_sums",
                        lambda *args: calls.append(args[4]) or real(*args))
    cells._cell_sums.cache_clear()
    constants = build_system_constants(3, 5, 2, 1)
    try:
        for mapping in ALL_MAPPINGS:
            predict_lc(constants, mapping)
    finally:
        cells._cell_sums.cache_clear()
    keys = [key for key, _ in cells.cells(3, 5, 2, 1)]
    assert calls == keys and len(keys) == 15


def test_predict_lc_at_large_periods():
    # LC as the gcd route measured it at P = 913 066, up to 16 s a row;
    # the bucket basis agrees on every mapping
    constants = build_system_constants(7, 11, 3, 3)
    assert predict_lc(constants, DEFAULT_MAPPING) == 913066
    assert predict_lc(constants, Mapping(0, 1, 2, 3, 2)) == 457864
    assert predict_lc(constants, Mapping(2, 1, 3, 0, 1)) == 230263
    system = build_system(7, 11, 3, 3)
    for mapping in ALL_MAPPINGS:
        assert (bucket_lc(system, mapping)
                == predict_lc(constants, mapping)), mapping


def test_same_side_pairs_lose_to_two_values():
    # at (1,1) with (2|p) = (2|q), the 24 mappings short of 2N split into
    # N + 1 and (N + 3)/2; LC = 2N exactly when e and the spectrum
    # profile's three regime values are all nonzero
    primes = [r for r in range(3, 62) if is_prime(r)]
    pairs = [(p, q) for p in primes for q in primes
             if p < q and two_is_square_mod(p) == two_is_square_mod(q)]
    assert len(pairs) == 70
    for p, q in pairs + list(CLASS_PAIRS):
        system, N = build_system(p, q, 1, 1), p * q
        counts = Counter()
        for mapping in ALL_MAPPINGS:
            lc = predict_lc(system.constants, mapping)
            prof = spectrum_profile(system, mapping)
            assert (lc == 2 * N) == all(
                (mapping.e, prof.value_generic, prof.value_p_saturated,
                 prof.value_q_saturated))
            counts[lc] += 1
        if (p, q) in pairs:
            assert counts == {2 * N: 48, N + 1: 12, (N + 3) // 2: 12}


def _with_e(row, bucket, e):
    # row with the E of bucket (half, a, b, c, d = 1 .. 5) set to e
    return row[:bucket] + (e << 2 | row[bucket] & 3,) + row[bucket + 1:]


def test_bucket_cells_name_the_first_differing_cell(sys15, monkeypatch):
    # the measured table is compared with the closed form's when it is
    # derived: against a closed form one bucket's E away on the first or
    # the last cell, or one row short, each read raises, naming the cell,
    # the bucket and both (E, O) pairs, and nothing is kept
    table = cells._cell_sums(3, 5, 1, 1)
    assert table[0][4] == 2 << 2 and table[-1][5] == 1 << 2
    for stub, message in (
            ((_with_e(table[0], 4, 3),) + table[1:], "c (E, O) = (2, 0) on "
             "cell (0, 0, 0, 0), the closed form (3, 0)"),
            (table[:-1] + (_with_e(table[-1], 5, 3),), "d (E, O) = (1, 0) on "
             "cell (1, 1, 0, 0), the closed form (3, 0)"),
            (table[:-1], "half (E, O) = (0, 1) on cell (1, 1, 0, 0), the "
             "closed form (0, 0)")):
        monkeypatch.setattr(cyclotomy, "_cell_sums", lambda *params: stub)
        fresh = dataclasses.replace(sys15)
        for _ in range(2):
            with pytest.raises(MethodDisagreement) as info:
                fresh.bucket_cells
            assert str(info.value) == "bucket basis gives " + message
        assert "bucket_cells" not in vars(fresh)
    monkeypatch.undo()
    assert dataclasses.replace(sys15).bucket_cells == table


@pytest.mark.parametrize("r, top, other", [
    (3, 1, 5), (3, 2, 5), (5, 2, 3), (7, 1, 3), (11, 1, 3), (13, 1, 3),
    (17, 1, 3)], ids=str)
def test_prime_power_sums_by_brute_force(r, top, other):
    # family by family, the sum over i <= top of zeta_i^(k x) over the
    # squares and non-squares x mod r^i, zeta_i a primitive r^i-th root of
    # unity in F_{4^d}, for k = u r^v: r's families of cell_char_sums, with
    # r as p at (v, 0, ns, 0) and as q at (0, v, 0, ns). Which Gaussian
    # period is eta_0 depends on the root, so either orientation may hold,
    # but the same one for every k and both roles of r
    context = build_extension(r**top * other)
    zeta = context.pow(context.beta, other)
    nonsquare = next(u for u in range(2, r) if pow(u, (r - 1) // 2, r) != 1)
    eta, eta_other = _periods_as_digits(r), _periods_as_digits(other)
    brute, as_p, as_q = [], ([], []), ([], [])
    for v in range(top + 2):
        for u in (1, nonsquare):
            k = u * r**v
            for i in range(1, top + 1):
                root, sums = context.pow(zeta, r**(top - i)), [0, 0]
                for x in range(1, r**i):
                    if x % r:
                        square = pow(x, (r - 1) // 2, r) == 1
                        sums[not square] ^= context.pow(root, k * x % r**i)
                brute += sums
            # a cell's Legendre bit is 0 once r's power is saturated
            a, ns = min(v, top), int(u != 1 and v < top)
            for flip, periods in enumerate((eta, eta[::-1])):
                # r's families: after the mixed ones as p, last as q
                sums_p = cell_char_sums(r, other, top, 1, (a, 0, ns, 0),
                                        (periods, eta_other))
                sums_q = cell_char_sums(other, r, 1, top, (0, a, 0, ns),
                                        (eta_other, periods))
                as_p[flip].extend(gf4.pack_scalar(t, context.d)
                                  for t in sums_p[2 * top:4 * top])
                as_q[flip].extend(gf4.pack_scalar(t, context.d)
                                  for t in sums_q[-2 * top:])
    assert any(brute == as_p[flip] == as_q[flip] for flip in (0, 1))


def _periods_as_digits(r):
    # (eta_0, eta_1) of r as predict_lc takes them, in GF(4) digits
    return (0, 1) if two_is_square_mod(r) else (gf4.ALPHA, gf4.ALPHA1)


def _xor_pairs(sums):
    # (T_0, T_1) summed over the families whose (T_0, T_1) pairs are listed
    return (functools.reduce(operator.xor, sums[0::2], 0),
            functools.reduce(operator.xor, sums[1::2], 0))


@pytest.mark.parametrize("r", [r for r in range(3, 44) if is_prime(r)])
def test_prime_power_sums_add_up_the_cell_sums(r):
    # r's families of cell_char_sums, family by family: as p at the cell
    # (v, 0, ns, 0), after the m * n mixed ones, they equal r's families as
    # q at (0, v, 0, ns), the last ones; as q, the mixed families (1, j),
    # first, are r's families at ns twisted by (p|q). A Legendre bit is 0
    # at its cap
    other = 5 if r == 3 else 3
    p_at_q = int(pow(other, (r - 1) // 2, r) != 1)
    for top in range(1, 5):
        for v in range(top + 1):
            for ns in (0, 1) if v < top else (0,):
                as_p = cell_char_sums(r, other, top, 1, (v, 0, ns, 0), (
                    _periods_as_digits(r), _periods_as_digits(other)))
                as_q = cell_char_sums(other, r, 1, top, (0, v, 0, ns), (
                    _periods_as_digits(other), _periods_as_digits(r)))
                assert len(as_p) == len(as_q) == 4 * top + 2
                assert as_p[2 * top:4 * top] == as_q[-2 * top:]
                twisted = cell_char_sums(other, r, 1, top, (
                    0, v, 0, ns ^ p_at_q if v < top else 0), (
                    _periods_as_digits(other), _periods_as_digits(r)))
                assert as_q[:2 * top] == twisted[-2 * top:]


def _lc_from_cell_sums(c, mapping):
    # predict_lc summed family by family: each family adds a T_0 + b T_1
    # to O and c T_s + d T_(1-s) to E, s its prime's side of 2 (q's on the
    # mixed families), and a cell loses its size once if E = O, twice if
    # both vanish
    periods = [_periods_as_digits(r) for r in (c.p, c.q)]
    sides = [int(not two_is_square_mod(c.q if j else c.p))
             for i, j in cyclotomy._family_indices(c.m, c.n)]
    lost = 0
    for a, b, lp, lq in itertools.product(range(c.m + 1), range(c.n + 1),
                                          (0, 1), (0, 1)):
        if (lp and a == c.m) or (lq and b == c.n):
            continue
        size = (euler_phi(c.p**(c.m - a)) * euler_phi(c.q**(c.n - b))
                >> ((a < c.m) + (b < c.n)))
        sums = cell_char_sums(c.p, c.q, c.m, c.n, (a, b, lp, lq),
                              periods)
        t0, t1 = _xor_pairs(sums)
        ts = functools.reduce(operator.xor,
                              (sums[2 * f + s] for f, s in enumerate(sides)))
        odd = mapping.e ^ mul(mapping.a, t0) ^ mul(mapping.b, t1)
        even = mul(mapping.c, ts) ^ mul(mapping.d, t0 ^ t1 ^ ts)
        if even == odd:
            lost += size << (odd == 0)
    return c.period - lost


@pytest.mark.parametrize("p, q", CLASS_PAIRS, ids=str)
def test_cell_sums_give_predict_lc(p, q):
    for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
        constants = build_system_constants(p, q, m, n)
        for mapping in ALL_MAPPINGS:
            assert (_lc_from_cell_sums(constants, mapping)
                    == predict_lc(constants, mapping)), (m, n, mapping)


@pytest.mark.parametrize("p, q", CLASS_PAIRS, ids=str)
def test_cell_sums_give_the_spectrum_profile(p, q):
    # S = E + O at each cell of predict_lc's table, the sum over the
    # buckets of v_b times both halves of the bucket's E << 2 | O, is
    # spectrum_profile's value in the cell's regime: e at k = 0, the cell
    # (m, n), then the p-saturated, q-saturated and generic values
    for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
        system = build_system(p, q, m, n)
        table = cells._cell_sums(p, q, m, n)
        keys = [key for key, _ in cells.cells(p, q, m, n)]
        for mapping in ALL_MAPPINGS:
            prof = spectrum_profile(system, mapping)
            values = (mapping.e, mapping.a, mapping.b, mapping.c, mapping.d)
            for (a, b, _, _), (_, *pairs) in zip(keys, table):
                total = functools.reduce(operator.xor, (
                    mul(v, w >> 2) ^ mul(v, w & 3)
                    for v, w in zip(values, pairs)))
                want = {(True, True): mapping.e,
                        (True, False): prof.value_p_saturated,
                        (False, True): prof.value_q_saturated,
                        (False, False): prof.value_generic}[a == m, b == n]
                assert total == want, (m, n, mapping, a, b)


@pytest.mark.parametrize("p, q", CLASS_PAIRS, ids=str)
def test_bucket_basis_equals_the_closed_form_on_every_cell(p, q):
    # measured off the paint, each bucket's E and O equal the closed
    # form's on every cell, so LC does too: 72 mappings at each (m, n) up
    # to (2, 2)
    for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
        system = build_system(p, q, m, n)
        assert system.bucket_cells == cells._cell_sums(p, q, m, n)
        for mapping in ALL_MAPPINGS:
            assert (bucket_lc(system, mapping)
                    == predict_lc(system.constants, mapping)), mapping


def test_bucket_basis_equals_the_closed_form_at_large_primes():
    # R_p R_q has 200 * 204 = 40 800 exponents, one per pair of squares
    system = build_system(401, 409, 1, 1)
    assert system.bucket_cells == cells._cell_sums(401, 409, 1, 1)


CHANGED_SYSTEMS = ((3, 5, 1, 1), (3, 7, 1, 1), (5, 3, 2, 1), (7, 17, 1, 1),
                   (3, 5, 1, 2), (17, 41, 1, 1))


@pytest.mark.parametrize("params", CHANGED_SYSTEMS, ids=str)
def test_changed_labels_raise_or_give_the_gcd_lc(params):
    # 150 paints, each with 1-5 positions relabelled at random: the bare
    # measurement either raises "not constant on cells" or gives, for
    # eight mappings drawn at random, the LC the gcd route measures on the
    # changed sequence. A change can pass: within one bucket it changes no
    # symbol, and on a cell of one root it may keep every value constant.
    # The held table is then the closed form's, or reading it raises
    system = build_system(*params)
    rng = random.Random(repr(params))
    raised = 0
    for _ in range(150):
        part = system.partition.copy()
        for t in rng.sample(range(system.period), rng.randint(1, 5)):
            part[t] = rng.randrange(len(system.labels))
        changed = dataclasses.replace(system, partition=part)
        try:
            rows = cyclotomy._bucket_cells(changed)
        except LemmaViolation as exc:
            assert str(exc).startswith("not constant on cells [level=")
            raised += 1
            continue
        for mapping in rng.sample(ALL_MAPPINGS, 8):
            seq = build_sequence(changed, mapping, allow_degenerate=True)
            assert cells._cells_lc(rows, changed.period, mapping) \
                == lc_via_gcd(seq.symbols)[0], mapping
        try:
            held = changed.bucket_cells
        except MethodDisagreement:
            continue
        assert held == rows == cells._cell_sums(*params)
    assert raised > 100


@pytest.mark.parametrize("params", CHANGED_SYSTEMS, ids=str)
def test_swapped_cosets_pass_the_span_check_and_fail_the_closed_form(params):
    # a family's two cosets swapped wholesale, labels 4 f + 2 <-> 4 f + 4
    # (a and b) and 4 f + 3 <-> 4 f + 5 (c and d): the paint stays constant
    # on cells, so the bare measurement passes, and only the comparison
    # with the closed form refuses the table
    system = build_system(*params)
    for f in range(len(cyclotomy._family_indices(*params[2:]))):
        swap = np.arange(len(system.labels), dtype=system.partition.dtype)
        swap[4 * f + 2:4 * f + 6] = swap[[4 * f + 4, 4 * f + 5,
                                          4 * f + 2, 4 * f + 3]]
        changed = dataclasses.replace(system, partition=swap[system.partition])
        assert cyclotomy._bucket_cells(changed) != system.bucket_cells
        with pytest.raises(MethodDisagreement, match="^bucket basis gives "):
            changed.bucket_cells
