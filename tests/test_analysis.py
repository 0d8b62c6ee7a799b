"""Berlekamp-Massey, gcd complexity, and their cross-checks."""

import functools
import itertools
import operator
import random
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloseq import analysis, cyclotomy, gf4
from cycloseq.analysis import (analyze_degenerate, analyze_symbols,
                               berlekamp_massey, cell_char_sums, checked_lc,
                               degenerate_lower_bound, generates,
                               lc_via_gcd, predict_lc, verify_theorem)
from cycloseq.cyclotomy import build_system
from cycloseq.errors import (InvalidMapping, InvalidParams,
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
    return gf4.poly_trim(quot), gf4.poly_trim(rem[:db])


def test_lc_via_gcd_small_cases():
    assert lc_via_gcd([0, 0, 0, 0, 0]) == (0, to_planes([1]))
    # constant nonzero of odd period: minimal polynomial is x + 1
    assert lc_via_gcd([2, 2, 2, 2, 2]) == (1, to_planes([1, 1]))
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
    assert report.lc_bm == report.lc_gcd == gf4.poly_deg(minpoly)
    # scaled to constant term 1, the minimal polynomial is the connection
    # polynomial of the periodic sequence
    conn = MUL_TABLE[INV_TABLE[minpoly[0]], minpoly]
    assert _generates(report.lc_gcd, conn, np.tile(s, 2))


def test_lc_via_gcd_checks_the_division(monkeypatch):
    # all ones, P = 6: G_1 = x^3 + 1 and G_2 = x^2 + x + 1, so the route
    # divides x^6 - 1 by their product; corrupt only that division's
    # remainder, not the divisions inside the gcds
    period = 6
    real = gf4.divmod_planes

    def bad_divmod(a1, a0, b1, b0):
        q1, q0, r1, r0 = real(a1, a0, b1, b0)
        if (a1, a0) == (0, 1 << period | 1):
            r0 ^= 1
        return q1, q0, r1, r0

    assert lc_via_gcd([1] * period)[0] == 1
    monkeypatch.setattr(gf4, "divmod_planes", bad_divmod)
    with pytest.raises(MethodDisagreement):
        lc_via_gcd([1] * period)


def _lc_via_unfolded_gcd(symbols):
    """The direct route: Euclid on x^P - 1 and S(x), then one division.

    lc_via_gcd folds this into gcds of degree <= N; this is the reference
    it must reproduce, on uint8 digits rather than gf4's planes.
    """
    period = len(symbols)
    big = _x_pow_n_minus_1(period)
    common, other = big, gf4.poly_trim(np.array(symbols, dtype=np.uint8))
    while len(other):
        common, other = other, _divmod_digits(common, other)[1]
    quotient, rem = _divmod_digits(big, common)
    assert not len(rem)
    # the quotient's leading digit is 1 / common's
    return period - gf4.poly_deg(common), MUL_TABLE[common[-1], quotient]


def _assert_same_route_answer(symbols):
    lc, minpoly = lc_via_gcd(symbols)
    lc_ref, minpoly_ref = _lc_via_unfolded_gcd(symbols)
    assert (lc, minpoly) == (lc_ref, to_planes(minpoly_ref))
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
        lc, minpoly = lc_via_gcd(seq.symbols)
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
    lc, minpoly = lc_via_gcd(symbols)
    assert berlekamp_massey(np.tile(symbols, 2)) == lc
    assert generates(symbols, lc, minpoly)


def test_folded_route_multiplicities():
    # P = 4 * 3: zero has every G_j = x^3 - 1, all four of them
    zero = np.zeros(12, dtype=np.uint8)
    assert lc_via_gcd(zero) == (0, to_planes([1]))
    # constant of period 8: S = c (x^8 - 1)/(x - 1) = c (x + 1)^7
    assert lc_via_gcd(np.full(8, 3, dtype=np.uint8)) == (1, to_planes([1, 1]))
    # impulse of period 8: S = 1, so the minimal polynomial is x^8 - 1
    assert lc_via_gcd(np.eye(1, 8, dtype=np.uint8)[0]) == \
        (8, to_planes(_x_pow_n_minus_1(8)))
    # s_t = t mod 2 over period 4: S = x (x^4 - 1)/(x^2 - 1) = x (x + 1)^2
    assert lc_via_gcd([0, 1, 0, 1]) == (2, to_planes([1, 0, 1]))


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
            lc, minpoly = lc_via_gcd(s)
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
        lc, (m1, m0) = lc_via_gcd(s)
        assert berlekamp_massey(np.tile(s, 2)) == lc
        assert generates(s, lc, (m1, m0))
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
    lc, (m1, m0) = lc_via_gcd(reduced)
    assert lc == 36 < len(reduced)

    def claim(answer):
        monkeypatch.setattr(analysis, "lc_via_gcd", lambda s: answer)

    claim((42, (0, 1 << 42 | 1)))
    with pytest.raises(MethodDisagreement, match="BM found 36, gcd found 42"):
        analyze_symbols(reduced)
    for t in range(lc):  # one coefficient flipped, the degree kept
        for flipped in ((m1 ^ 1 << t, m0), (m1, m0 ^ 1 << t)):
            claim((lc, flipped))
            with pytest.raises(MethodDisagreement):
                analyze_symbols(reduced)
    for short in (0, 1, 15, 29):
        claim((short, (0, 1 << short | 1)))
        with pytest.raises(MethodDisagreement,
                           match=f"BM found 30, gcd found {short}"):
            analyze_symbols(full)
    for t in (0, 1, 14, 29):  # x^30 - 1 with one coefficient flipped
        for flipped in ((1 << t, 1 << 30 | 1), (0, (1 << 30 | 1) ^ 1 << t)):
            claim((30, flipped))
            with pytest.raises(MethodDisagreement, match="does not generate"):
                analyze_symbols(full)


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
    assert gf4.poly_deg(r.minimal_polynomial) == r.lc_gcd == 42
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


# one pair per (p mod 8, q mod 8) class, as in the sweep benchmark
CLASS_PAIRS = ((17, 41), (17, 3), (17, 5), (17, 7), (7, 17), (7, 3), (7, 5),
               (7, 23), (3, 17), (3, 11), (3, 5), (3, 7), (5, 17), (5, 3),
               (5, 13), (5, 7))
# every structurally valid mapping: a, b, c, d distinct, e nonzero
ALL_MAPPINGS = tuple(Mapping(*perm, e)
                     for perm in itertools.permutations(range(4))
                     for e in (1, 2, 3))


def test_class_pairs_cover_every_class():
    assert len({(p % 8, q % 8) for p, q in CLASS_PAIRS}) == 16
    assert len(ALL_MAPPINGS) == 72


@pytest.mark.parametrize("params", [(p, q, 1, 1) for p, q in CLASS_PAIRS] + [
    (3, 5, 2, 1), (3, 5, 1, 2), (3, 5, 2, 2), (7, 17, 2, 1), (7, 17, 1, 2),
    (17, 3, 2, 1), (3, 17, 1, 2), (5, 7, 2, 2), (7, 3, 2, 2), (3, 5, 4, 3)],
    ids=str)
def test_predict_lc_equals_the_gcd_route(params):
    system = build_system(*params)
    for mapping in ALL_MAPPINGS:
        seq = build_sequence(system, mapping, allow_degenerate=True)
        predicted = predict_lc(system.constants, mapping)
        assert type(predicted) is int
        assert predicted == lc_via_gcd(seq.symbols)[0], mapping


def test_predict_lc_at_large_periods():
    # LC as the gcd route measured it at P = 913 066, up to 16 s a row
    constants = build_system_constants(7, 11, 3, 3)
    assert predict_lc(constants, DEFAULT_MAPPING) == 913066
    assert predict_lc(constants, Mapping(0, 1, 2, 3, 2)) == 457864
    assert predict_lc(constants, Mapping(2, 1, 3, 0, 1)) == 230263


def test_same_side_pairs_lose_to_two_values():
    # at (1,1) with (2|p) = (2|q), the 24 mappings short of 2N split into
    # N + 1 and (N + 3)/2; LC = 2N exactly when the spectrum profile says
    primes = [r for r in range(3, 62) if is_prime(r)]
    pairs = [(p, q) for p in primes for q in primes
             if p < q and two_is_square_mod(p) == two_is_square_mod(q)]
    assert len(pairs) == 70
    for p, q in pairs + list(CLASS_PAIRS):
        system, N = build_system(p, q, 1, 1), p * q
        counts = Counter()
        for mapping in ALL_MAPPINGS:
            lc = predict_lc(system.constants, mapping)
            assert ((lc == 2 * N)
                    == spectrum_profile(system, mapping).attains_max)
            counts[lc] += 1
        if (p, q) in pairs:
            assert counts == {2 * N: 48, N + 1: 12, (N + 3) // 2: 12}


def test_checked_lc_names_both_values(sys15, monkeypatch):
    seq = build_sequence(sys15, Mapping(2, 3, 1, 0, 2),
                         allow_degenerate=True)
    assert checked_lc(seq) == 16
    monkeypatch.setattr(analysis, "predict_lc",
                        lambda constants, mapping: 17)
    with pytest.raises(MethodDisagreement) as info:
        checked_lc(seq)
    assert str(info.value) == ("gcd found 16, the closed form predicts 17 "
                               "for mapping (2, 3, 1, 0, 2)")


@pytest.mark.parametrize("r, top, other", [
    (3, 1, 5), (3, 2, 5), (5, 2, 3), (7, 1, 3), (11, 1, 3), (13, 1, 3),
    (17, 1, 3)], ids=str)
def test_prime_power_sums_by_brute_force(r, top, other):
    # sum over i <= top of zeta_i^(k x) over the squares and non-squares
    # x mod r^i, zeta_i a primitive r^i-th root of unity in F_{4^d}, for
    # k = u r^v; which Gaussian period is eta_0 depends on the root, so
    # either orientation may hold, but the same one for every k
    context = build_extension(r**top * other)
    zeta = context.pow(context.beta, other)
    nonsquare = next(u for u in range(2, r) if pow(u, (r - 1) // 2, r) != 1)
    brute, by_formula = [], ([], [])
    for v in range(top + 2):
        for u in (1, nonsquare):
            k, sums = u * r**v, [0, 0]
            for i in range(1, top + 1):
                root = context.pow(zeta, r**(top - i))
                for x in range(1, r**i):
                    if x % r:
                        square = pow(x, (r - 1) // 2, r) == 1
                        sums[not square] ^= context.pow(root, k * x % r**i)
            brute.append(tuple(sums))
            for flip in (0, 1):
                by_formula[flip].append(tuple(
                    gf4.pack_scalar(t, context.d) for t in
                    analysis._prime_power_sums(r, top, v, (u != 1) ^ flip)))
    assert brute in by_formula


def _periods_as_digits(r):
    # (eta_0, eta_1) of r as predict_lc takes them, in GF(4) digits
    return (0, 1) if two_is_square_mod(r) else (gf4.ALPHA, gf4.ALPHA1)


def _xor_pairs(sums):
    # (T_0, T_1) summed over the families whose (T_0, T_1) pairs are listed
    return (functools.reduce(operator.xor, sums[0::2], 0),
            functools.reduce(operator.xor, sums[1::2], 0))


@pytest.mark.parametrize("r", [r for r in range(3, 44) if is_prime(r)])
def test_prime_power_sums_add_up_the_cell_sums(r):
    # r as p at cell (v, 0, ns, 0): its p-power families, the m * n mixed
    # ones first; r as q at (0, v, 0, ns): its q-power families last, and
    # the mixed families (1, j), twisted by (p|q), first
    other = 5 if r == 3 else 3
    p_at_q = int(pow(other, (r - 1) // 2, r) != 1)
    for top in range(1, 5):
        as_p = SimpleNamespace(p=r, q=other, m=top, n=1)
        as_q = SimpleNamespace(p=other, q=r, m=1, n=top)
        for v in range(top + 2):
            for ns in (0, 1):
                want = analysis._prime_power_sums(r, top, v, ns)
                sums = cell_char_sums(as_p, (v, 0, ns, 0), (
                    _periods_as_digits(r), _periods_as_digits(other)))
                assert _xor_pairs(sums[2 * top:4 * top]) == want
                sums = cell_char_sums(as_q, (0, v, 0, ns), (
                    _periods_as_digits(other), _periods_as_digits(r)))
                assert len(sums) == 4 * top + 2
                assert _xor_pairs(sums[-2 * top:]) == want
                assert _xor_pairs(sums[:2 * top]) == \
                    analysis._prime_power_sums(r, top, v, ns ^ p_at_q)


def _lc_from_cell_sums(c, mapping):
    # predict_lc summed family by family: each family adds a T_0 + b T_1
    # to O and c T_s + d T_(1-s) to E, s its prime's side of 2 (q's on the
    # mixed families), and a cell loses its size once if E = O, twice if
    # both vanish
    periods = [_periods_as_digits(r) for r in (c.p, c.q)]
    sides = [int(not two_is_square_mod(c.q if j else c.p))
             for i, j in cyclotomy._family_indices(c.m, c.n)]
    mul = gf4.gf4_mul
    lost = 0
    for a, b, lp, lq in itertools.product(range(c.m + 1), range(c.n + 1),
                                          (0, 1), (0, 1)):
        if (lp and a == c.m) or (lq and b == c.n):
            continue
        size = (euler_phi(c.p**(c.m - a)) * euler_phi(c.q**(c.n - b))
                >> ((a < c.m) + (b < c.n)))
        sums = cell_char_sums(c, (a, b, lp, lq), periods)
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
