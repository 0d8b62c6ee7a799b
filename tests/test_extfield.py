"""Extension-field arithmetic and the character-sum verifications."""

import dataclasses
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

from conftest import with_classes
from cycloseq import cli, gf4
from cycloseq.analysis import analyze_symbols
from cycloseq import extfield
from cycloseq.cyclotomy import (DOUBLED_SHAPES, ClassId, all_class_ids,
                                build_system, h_set)
from cycloseq.errors import (CapExceeded, CaseViolation, CycloseqError,
                             InvalidMapping, InvalidParams, LemmaViolation)
from cycloseq.extfield import (build_extension, char_sum, is_irreducible,
                               least_irreducible, measure_spectrum,
                               verify_case_table, verify_char_sum_tables)
from cycloseq.numtheory import factorize
from cycloseq.sequence import (DEFAULT_MAPPING, Mapping, build_sequence,
                               spectrum_profile, validate_mapping)

ALL_MAPPINGS = [Mapping(*perm, e) for perm in itertools.permutations(range(4))
                for e in (1, 2, 3)]


@pytest.fixture(scope="module")
def sys15():
    return build_system(3, 5, 1, 1)


@pytest.fixture(scope="module")
def ctx15():
    return build_extension(15)


@pytest.fixture(scope="module")
def sys21():
    return build_system(3, 7, 1, 1)


@pytest.fixture(scope="module")
def ctx21():
    return build_extension(21)


def _to_packed(poly, d):
    return gf4.pack(*gf4.to_planes(poly), d)


def _from_packed(x, d):
    return gf4.from_planes(*gf4.unpack(x, d))


def _digits(x, d):
    return gf4.poly_to_digits(_from_packed(x, d))


def _mul(ctx, x, y):
    return gf4.field_mul(x, y, ctx.d, ctx.x_to_d)


def test_packed_roundtrip():
    rng = random.Random(911)
    for _ in range(50):
        d = rng.randrange(1, 10)
        coeffs = [rng.randrange(4) for _ in range(d)]
        packed = _to_packed(np.array(coeffs, dtype=np.uint8), d)
        assert packed < 4**d
        back = _from_packed(packed, d)
        assert np.array_equal(back, gf4.poly(coeffs))


def _eval_gf4(poly, v):
    acc = 0
    for c in poly[::-1]:
        acc = gf4.gf4_mul(acc, v) ^ int(c)
    return acc


def test_irreducibility_against_root_oracle():
    # degree <= 3 over GF(4): irreducible iff no root in the base field
    for d in (2, 3):
        for code in range(4**d):
            coeffs = [(code >> (2 * i)) & 3 for i in range(d)] + [1]
            poly = gf4.poly(coeffs)
            has_root = any(_eval_gf4(poly, v) == 0 for v in range(4))
            assert is_irreducible(poly) == (not has_root)


def test_irreducibility_against_product_oracle():
    # degree 4 and 5: reducible iff a product of two monic polynomials of
    # lower degree, formed with mul_planes; a scalar multiple of a
    # polynomial is irreducible exactly when the polynomial is
    def monic(deg):
        return [gf4.poly(c + (1,))
                for c in itertools.product(range(4), repeat=deg)]

    for d, scalar in ((4, 2), (5, 3)):
        reducible = {gf4.mul_planes(*gf4.to_planes(f), *gf4.to_planes(g))
                     for low in range(1, d // 2 + 1)
                     for f in monic(low) for g in monic(d - low)}
        for poly in monic(d):
            irreducible = gf4.to_planes(poly) not in reducible
            assert is_irreducible(poly) == irreducible
            assert is_irreducible(gf4.MUL_TABLE[scalar, poly]) == \
                irreducible


def test_least_irreducible():
    expected = ["11", "121", "1011", "10121", "100021", "1001121",
                "10000011", "100002031", "1000000011", "10000002101",
                "100000000021", "1000000001121"]
    assert [gf4.poly_to_digits(least_irreducible(d))
            for d in range(1, 13)] == expected
    p3 = least_irreducible(3)
    assert is_irreducible(p3) and gf4.poly_deg(p3) == 3
    # nothing lexicographically earlier (constant term compared first,
    # zero constant terms excluded) is irreducible
    prefix = tuple(int(c) for c in p3[:3])
    for cand_prefix in itertools.product((1, 2, 3), range(4), range(4)):
        if cand_prefix >= prefix:
            break
        assert not is_irreducible(gf4.poly(cand_prefix + (1,)))


def test_ext_mul_matches_poly_arithmetic(ctx15, ctx21):
    rng = random.Random(912)
    for ctx in (ctx15, ctx21):
        size = 4**ctx.d
        for _ in range(200):
            x = rng.randrange(size)
            y = rng.randrange(size)
            got = _mul(ctx, x, y)
            prod = gf4.mul_planes(*gf4.unpack(x, ctx.d),
                                  *gf4.unpack(y, ctx.d))
            rem = gf4.divmod_planes(*prod, *gf4.to_planes(ctx.modulus))[2:]
            assert got == gf4.pack(*rem, ctx.d)


def test_ext_pow_fermat(ctx15):
    rng = random.Random(913)
    for _ in range(30):
        x = rng.randrange(1, 16)
        assert ctx15.pow(x, ctx15.group_order) == 1
    assert ctx15.pow(0, 5) == 0
    with pytest.raises(InvalidParams):
        ctx15.pow(2, -1)


def _order(ctx, x):
    # multiplicative order of a nonzero packed element
    order = ctx.group_order
    for r in factorize(order):
        while order % r == 0 and ctx.pow(x, order // r) == 1:
            order //= r
    return order


def _zeta(ctx, r):
    # beta^(N/r): a primitive r-th root of unity for every divisor r of N
    return ctx.pow(ctx.beta, ctx.N // r)


def test_context_shape(ctx15, ctx21):
    assert ctx15.d == 2 and ctx15.group_order == 15
    # 4^2 - 1 = 15 = N: beta generates the whole multiplicative group
    assert _order(ctx15, ctx15.beta) == 15
    assert ctx21.d == 3
    assert ctx21.beta == ctx21.pow(ctx21.beta_base, 3)
    for ctx, (p, q) in ((ctx15, (3, 5)), (ctx21, (3, 7))):
        N = ctx.N
        assert ctx.pow(ctx.beta, N) == 1
        assert ctx.pow(ctx.beta, N // p) != 1
        assert ctx.pow(ctx.beta, N // q) != 1
        assert _order(ctx, _zeta(ctx, p)) == p
        assert _order(ctx, _zeta(ctx, q)) == q
        assert _order(ctx, _zeta(ctx, p * q)) == p * q


def test_zeta_orders_tower():
    ctx = build_extension(45)
    assert ctx.d == 6
    assert _order(ctx, ctx.beta) == 45
    assert _order(ctx, _zeta(ctx, 3)) == 3
    assert _order(ctx, _zeta(ctx, 5)) == 5
    assert _order(ctx, _zeta(ctx, 15)) == 15


def test_geometric_sums(ctx15):
    # full cycle of a nontrivial root sums to zero
    for k in range(1, 15):
        acc = 0
        for r in range(15):
            acc ^= int(ctx15.beta_powers[(k * r) % 15])
        assert acc == 0
    # sum over the units of a prime-order root is 1 in characteristic 2
    for r in (3, 5):
        acc = 0
        for t in range(1, r):
            acc ^= ctx15.pow(_zeta(ctx15, r), t)
        assert acc == 1


def test_char_sum_at_zero(sys15, ctx15):
    for cid, cls in sys15.classes.items():
        assert char_sum(sys15, ctx15, cid, 0) == len(cls) % 2
        # k acts mod N, also beyond the int64 range
        assert char_sum(sys15, ctx15, cid, 15 * 10**30 + 7) == \
            char_sum(sys15, ctx15, cid, 7) == char_sum(sys15, ctx15, cid, -8)


def test_complementary_sums():
    # the two cosets of the pq-level partition sum to 1 at any unit k
    for params in ((3, 5, 1, 1), (3, 5, 2, 1)):
        system = build_system(*params)
        ctx = build_extension(system.constants.half_period)
        pq = params[0] * params[1]
        for k in range(1, ctx.N):
            if math.gcd(k, pq) != 1:
                continue
            s0 = char_sum(system, ctx, ClassId("pq", 1, 1, 0), k)
            s1 = char_sum(system, ctx, ClassId("pq", 1, 1, 1), k)
            assert s0 ^ s1 == 1


def test_context_mismatch(sys15, ctx21):
    with pytest.raises(InvalidParams):
        char_sum(sys15, ctx21, ClassId("pq", 1, 1, 0), 1)


def test_measure_spectrum_matches_direct_eval(sys15, ctx15, sys21, ctx21):
    # direct Horner evaluation of S(x) at beta^k, for every mapping and k; a
    # GF4 scalar embeds as the packed constant (gf4.pack_scalar), so xor-ing
    # the symbol in is exact
    for system, ctx in ((sys15, ctx15), (sys21, ctx21)):
        for mapping in ALL_MAPPINGS:
            symbols = build_sequence(system, mapping,
                                     allow_degenerate=True).symbols
            spec = measure_spectrum(system, ctx, mapping)
            assert len(spec) == ctx.N
            for k in range(ctx.N):
                x = int(ctx.beta_powers[k])
                acc = 0
                for sym in symbols[::-1]:
                    acc = _mul(ctx, acc, x) ^ gf4.pack_scalar(int(sym), ctx.d)
                assert int(spec[k]) == acc, (mapping, k)


def test_case_table_values(sys15, ctx15, sys21, ctx21):
    rep = verify_case_table(sys15, ctx15, DEFAULT_MAPPING)
    assert rep.s_at_1 == 1
    assert rep.value_generic == rep.value_p_saturated == \
        rep.value_q_saturated == 3
    assert rep.checked == 15
    assert rep.max_complexity_predicted
    rep = verify_case_table(sys21, ctx21, DEFAULT_MAPPING)
    assert rep.value_generic == 3
    assert rep.value_p_saturated == 2
    assert rep.value_q_saturated == 3
    assert rep.max_complexity_predicted
    d = rep.to_json_dict()
    assert d["checked"] == 21 and d["all_values_nonzero"] is True


def test_case_table_cross_checks_complexity(sys21, ctx21):
    # nonzero spectrum everywhere is equivalent to LC = 2N, measured both ways
    for mapping in (DEFAULT_MAPPING, Mapping(0, 3, 1, 2, 1),
                    Mapping(3, 2, 0, 1, 1)):
        rep = verify_case_table(sys21, ctx21, mapping)
        seq = build_sequence(sys21, mapping)
        lc = analyze_symbols(seq.symbols).lc_gcd
        assert rep.max_complexity_predicted == (lc == seq.period)


def test_case_table_rejects_degenerate(sys15, ctx15):
    with pytest.raises(InvalidMapping):
        verify_case_table(sys15, ctx15, Mapping(2, 3, 1, 0, 3))


def test_char_sum_tables_clean():
    for params, cells in (((3, 5, 1, 1), 84), ((3, 7, 1, 1), 120),
                          ((3, 5, 2, 1), 440)):
        system = build_system(*params)
        ctx = build_extension(system.constants.half_period)
        rep = verify_char_sum_tables(system, ctx)
        assert rep.k_count == ctx.N - 1
        assert rep.cells_checked == cells


def test_build_extension_rejections():
    with pytest.raises(InvalidParams):
        build_extension(9)        # single prime power
    with pytest.raises(InvalidParams):
        build_extension(105)      # three primes
    with pytest.raises(InvalidParams):
        build_extension(30)       # even
    with pytest.raises(CapExceeded):
        build_extension(11 * 13)  # ord_{143}(4) = 30 > 12


def test_beta_cycle_is_checked(monkeypatch):
    real = extfield._power_table

    def broken(*args):
        table = real(*args).copy()
        table[-1] ^= 1
        return table

    monkeypatch.setattr(extfield, "_power_table", broken)
    with pytest.raises(LemmaViolation, match="close the cycle"):
        build_extension(21)


# --- scalar reference: the per-k loops the whole-table kernel replaced -----

def _xsum(ctx, elems, k):
    acc = 0
    for t in elems:
        acc ^= int(ctx.beta_powers[k * int(t) % ctx.N])
    return acc


def _valuation(x, prime):
    v = 0
    while x % prime == 0:
        x //= prime
        v += 1
    return v


def _expected_cell(system, ctx, cid, k):
    c = system.constants
    p, q, m, n = c.p, c.q, c.m, c.n
    a, b = _valuation(k, p), _valuation(k, q)
    l = k // (p**a * q**b)
    i, j = cid.i, cid.j

    def root(shape, ri, rj, zeta_exp, mult):
        # evaluated from powers of zeta = beta^zeta_exp, not from beta_powers
        zeta = ctx.pow(ctx.beta, zeta_exp)
        acc = 0
        for t in system.classes[ClassId(shape, ri, rj, cid.h)]:
            acc ^= ctx.pow(zeta, mult * l * int(t))
        return acc

    if cid.shape == "2pq":
        if i <= a and j <= b:
            return ((p - 1) * (q - 1) * p**(i - 1) * q**(j - 1) // 2) & 1
        if i == a + 1 and j == b + 1:
            return root("pq", 1, 1, p**(m - 1) * q**(n - 1), 1)
        return ((q - 1) // 2) & 1 if i == a + 1 and j <= b else 0
    if cid.shape == "2p":
        if i <= a:
            return (p**(i - 1) * (p - 1) // 2) & 1
        return root("p", 1, 0, p**(m - 1) * q**n, q**b) if i == a + 1 else 0
    if j <= b:
        return (q**(j - 1) * (q - 1) // 2) & 1
    return root("q", 0, 1, p**m * q**(n - 1), p**a) if j == b + 1 else 0


_DETAIL = {"2pq": "mixed-modulus character sum off its closed form",
           "2p": "p-power character sum off its closed form",
           "2q": "q-power character sum off its closed form"}


def _ref_char_sums(system, ctx):
    c = system.constants
    cells = [cid for cid in all_class_ids(c.m, c.n)
             if cid.shape in DOUBLED_SHAPES]
    checked = 0
    for k in range(1, ctx.N):
        for cid in cells:
            expected = _expected_cell(system, ctx, cid, k)
            got = _xsum(ctx, h_set(system, cid), k)
            checked += 1
            if got != expected:
                raise LemmaViolation(_DETAIL[cid.shape], k=k, cell=cid,
                                     expected=_digits(expected, ctx.d),
                                     measured=_digits(got, ctx.d))
    return checked


def _ref_spectrum(system, ctx, mapping):
    seq = build_sequence(system, mapping, allow_degenerate=True)
    folded = seq.symbols[:ctx.N] ^ seq.symbols[ctx.N:]
    spec = []
    for k in range(ctx.N):
        acc = 0
        for v in (1, 2, 3):
            acc ^= _mul(ctx, _xsum(ctx, np.nonzero(folded == v)[0], k),
                        gf4.pack_scalar(v, ctx.d))
        spec.append(acc)
    return spec


def _ref_case_table(system, ctx, mapping):
    bad = validate_mapping(system.constants.p, mapping)
    if bad:
        raise InvalidMapping(bad)
    prof = spectrum_profile(system, mapping)
    spec = _ref_spectrum(system, ctx, mapping)
    e = gf4.pack_scalar(mapping.e, ctx.d)
    if spec[0] != e:
        raise CaseViolation(0, _digits(e, ctx.d), _digits(spec[0], ctx.d))
    c = system.constants
    for k in range(1, ctx.N):
        if k % c.p**c.m == 0:
            expected = prof.value_p_saturated
        elif k % c.q**c.n == 0:
            expected = prof.value_q_saturated
        else:
            expected = prof.value_generic
        expected = gf4.pack_scalar(expected, ctx.d)
        if spec[k] != expected:
            raise CaseViolation(k, _digits(expected, ctx.d),
                                _digits(spec[k], ctx.d))
    return ctx.N


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except CycloseqError as exc:
        return (type(exc).__name__, str(exc), vars(exc))


def _corrupted_contexts(ctx, position):
    bp = ctx.beta_powers.copy()
    bp[position] ^= 1
    squared = ctx.beta_powers[2 * np.arange(ctx.N) % ctx.N]
    return [dataclasses.replace(ctx, beta_powers=bp),
            dataclasses.replace(ctx, beta=int(squared[1]),
                                beta_powers=squared)]


@pytest.mark.parametrize("params, position, first_k", [
    ((3, 7, 1, 1), 7, 1), ((3, 5, 2, 1), 2, 1), ((3, 5, 1, 1), 0, 3)])
def test_char_sum_witness_matches_reference(params, position, first_k):
    system = build_system(*params)
    ctx = build_extension(system.constants.half_period)
    bad, squared = _corrupted_contexts(ctx, position)
    got = _outcome(verify_char_sum_tables, system, bad)
    assert got == _outcome(_ref_char_sums, system, bad)
    assert got[0] == "LemmaViolation" and got[2]["witness"]["k"] == first_k
    rep = verify_char_sum_tables(system, squared)
    assert rep.cells_checked == _ref_char_sums(system, squared)


@pytest.mark.parametrize("params", [(3, 5, 1, 1), (3, 7, 1, 1),
                                    (3, 5, 2, 1)])
def test_every_table_flip_is_caught(params):
    # the expected root sums come from powers of zeta, not from beta_powers,
    # so no single-bit corruption of the table can hide on both sides
    system = build_system(*params)
    ctx = build_extension(system.constants.half_period)
    verify_char_sum_tables(system, ctx)
    for position in range(ctx.N):
        for bit in range(2 * ctx.d):
            bp = ctx.beta_powers.copy()
            bp[position] ^= 1 << bit
            with pytest.raises(LemmaViolation):
                verify_char_sum_tables(
                    system, dataclasses.replace(ctx, beta_powers=bp))


@pytest.mark.parametrize("params, position", [
    ((3, 7, 1, 1), 7), ((3, 5, 2, 1), 2), ((3, 5, 1, 1), 0)])
def test_case_table_witness_matches_reference(params, position):
    system = build_system(*params)
    ctx = build_extension(system.constants.half_period)
    raised = set()
    for bad in [ctx] + _corrupted_contexts(ctx, position):
        for mapping in (DEFAULT_MAPPING, Mapping(0, 3, 1, 2, 1),
                        Mapping(3, 2, 0, 1, 1), Mapping(2, 3, 1, 0, 3)):
            got = _outcome(verify_case_table, system, bad, mapping)
            want = _outcome(_ref_case_table, system, bad, mapping)
            if got[0] == "ok":
                got = ("ok", got[1].checked)
            assert got == want
            raised.add(got[0])
    assert "CaseViolation" in raised


# --- the spectrum read off the character-sum table -------------------------

def _three_support_spectrum(system, ctx, mapping, t0_as_read=False):
    # the gather measure_spectrum read the spectrum from before it used the
    # char-sum table: beta powers summed over the three value supports of
    # the folded sequence, k = 0 by itself and k >= 1 one orbit at a time.
    # t0_as_read takes t = 0 out of the walk: its term folded[0] beta^0 is
    # then added to every row as read, as the definition of S has it
    symbols = build_sequence(system, mapping, allow_degenerate=True).symbols
    folded = symbols[:ctx.N] ^ symbols[ctx.N:]
    supports = [np.nonzero(folded == v)[0] for v in (1, 2, 3)]
    if t0_as_read:
        supports = [ts[ts > 0] for ts in supports]
    sums = np.vstack([extfield._power_sums(ctx.beta_powers, supports, [0]),
                      extfield._orbit_sums(ctx, supports)])
    planes = gf4.unpack(sums[:, 1] ^ sums[:, 2], ctx.d)
    spectrum = sums[:, 0] ^ sums[:, 2] ^ gf4.pack(
        *gf4.planes_scale(*planes, 2), ctx.d)
    if t0_as_read:
        one = gf4.unpack(int(ctx.beta_powers[0]), ctx.d)
        spectrum ^= gf4.pack(*gf4.planes_scale(*one, int(folded[0])), ctx.d)
    return spectrum


# one verify-admissible system (N <= 5 000, d <= 12) per (p mod 8, q mod 8)
# class, the least N in each; class (7, 7) has none at any exponents, so it
# is missing. Then two prime-power systems and the grid's 14-cell system.
SPECTRUM_SYSTEMS = [
    (17, 241, 1, 1), (17, 3, 1, 1), (17, 5, 1, 1), (17, 7, 1, 1),
    (3, 17, 1, 1), (3, 11, 1, 1), (3, 5, 1, 1), (3, 7, 1, 1),
    (5, 17, 1, 1), (5, 3, 1, 1), (5, 13, 1, 1), (5, 7, 1, 1),
    (7, 17, 1, 1), (7, 3, 1, 1), (7, 5, 1, 1),
    (3, 5, 2, 1), (3, 5, 1, 2), (3, 19, 3, 1)]


@pytest.mark.parametrize("params", SPECTRUM_SYSTEMS)
def test_spectrum_off_the_table_matches_three_support_gather(params):
    system = build_system(*params)
    ctx = build_extension(system.constants.half_period)
    chars = verify_char_sum_tables(system, ctx)
    assert chars.table.shape == (ctx.N - 1, chars.cells_checked // (ctx.N - 1))
    for i, mapping in enumerate(ALL_MAPPINGS):
        want = _three_support_spectrum(system, ctx, mapping)
        got = measure_spectrum(system, ctx, mapping, chars)
        assert got.dtype == np.uint32 and np.array_equal(got, want), mapping
        if i % 12 == 0:
            assert np.array_equal(
                measure_spectrum(system, ctx, mapping), want), mapping


@pytest.mark.parametrize("params", [(3, 5, 1, 1), (3, 7, 1, 1)])
def test_spectrum_off_the_table_under_every_table_flip(params):
    # both routes are GF(2)-linear in beta_powers and walk the same orbits,
    # so a corrupted table gives the gather's answer bit for bit. The one
    # exception is a beta^0 outside GF(4): the old walk raised the t = 0
    # term to 4^j-th powers along each orbit, while measure_spectrum reads
    # beta_powers[0] on every row; the two agree once t = 0 is read alike
    system = build_system(*params)
    ctx = build_extension(system.constants.half_period)
    gf4_bits = 1 | 1 << ctx.d
    flips = itertools.product(range(ctx.N), range(2 * ctx.d))
    moved = 0
    for i, (position, bit) in enumerate(flips):
        bp = ctx.beta_powers.copy()
        bp[position] ^= 1 << bit
        bad = dataclasses.replace(ctx, beta_powers=bp)
        outside = bool(int(bp[0]) & ~gf4_bits)
        for mapping in (DEFAULT_MAPPING, ALL_MAPPINGS[i % 72]):
            got = measure_spectrum(system, bad, mapping)
            want = _three_support_spectrum(system, bad, mapping)
            assert np.array_equal(got, want) or outside, (position, bit)
            assert np.array_equal(got, _three_support_spectrum(
                system, bad, mapping, t0_as_read=True)), (position, bit)
            moved += not np.array_equal(got, want)
    assert moved  # the exception occurs, and the test sees it


@pytest.mark.parametrize("rank", [0, 1])
def test_spectrum_checks_the_folded_sequence_is_constant_on_cells(
        sys15, ctx15, rank):
    # swap the labels of the rank-th least positions t of the two 2pq cells:
    # the folded sequence then changes on cell (2pq, 1, 1, 0) at t only.
    # The cell's value is read at its least t, so at rank 0 the witness is
    # the second-least t, whose value differs from the one read at t
    cell, twin = ClassId("2pq", 1, 1, 0), ClassId("2pq", 1, 1, 1)
    ts = np.sort(h_set(sys15, cell) % 15)
    t1 = int(ts[rank])
    t2 = int(np.sort(h_set(sys15, twin) % 15)[rank])
    u1, u2 = (t if t % 2 else t + 15 for t in (t1, t2))  # the odd positions
    part = sys15.partition.copy()
    part[[u1, u2]] = part[[u2, u1]]
    # the original tables: the cells keep their members, the values move
    swapped = with_classes(sys15, sys15.classes, partition=part)
    chars = verify_char_sum_tables(sys15, ctx15)
    calls = [lambda: measure_spectrum(swapped, ctx15, DEFAULT_MAPPING),
             lambda: measure_spectrum(swapped, ctx15, DEFAULT_MAPPING, chars),
             lambda: verify_case_table(swapped, ctx15, DEFAULT_MAPPING),
             lambda: verify_case_table(swapped, ctx15, DEFAULT_MAPPING,
                                       char_sums=chars)]
    for call in calls:
        with pytest.raises(LemmaViolation, match="not constant") as info:
            call()
        assert info.value.witness == {"cell": cell, "t": int(ts[1])}
    # the unswapped system reads the same table without complaint
    assert verify_case_table(sys15, ctx15, DEFAULT_MAPPING,
                             char_sums=chars).checked == 15


def test_witness_values_are_remainder_digits():
    # beta^1 + X at d = 3: X, whose packed code is 2, prints as 01, and
    # (alpha + 1)(1 + X), packed 27, as 33
    system = build_system(3, 7, 1, 1)
    ctx = build_extension(21)
    bp = ctx.beta_powers.copy()
    bp[1] ^= 2
    bad = dataclasses.replace(ctx, beta_powers=bp)
    with pytest.raises(LemmaViolation) as info:
        verify_char_sum_tables(system, bad)
    assert info.value.witness["expected"] == "0"
    assert info.value.witness["measured"] == "01"
    with pytest.raises(CaseViolation) as info:
        verify_case_table(system, bad, DEFAULT_MAPPING)
    assert (info.value.k, info.value.expected, info.value.measured) == \
        (1, "3", "33")


def test_blocked_kernel_matches_single_block(monkeypatch):
    system = build_system(3, 5, 2, 1)
    ctx = build_extension(system.constants.half_period)
    bad = _corrupted_contexts(ctx, 2)[0]
    sets = [h_set(system, cid) for cid in system.classes
            if cid.shape in DOUBLED_SHAPES] + [np.array([], dtype=np.int64)]
    ks = np.append(np.arange(-3, 2 * ctx.N), 10**15 + 7)
    whole = extfield._power_sums(ctx.beta_powers, sets, ks)
    spectrum = measure_spectrum(system, ctx, DEFAULT_MAPPING)
    witness = _outcome(verify_char_sum_tables, system, bad)
    for budget in (1, 50, 1000):
        monkeypatch.setattr(extfield, "_BLOCK_ELEMENTS", budget)
        assert np.array_equal(
            extfield._power_sums(ctx.beta_powers, sets, ks), whole)
        assert np.array_equal(
            measure_spectrum(system, ctx, DEFAULT_MAPPING), spectrum)
        assert _outcome(verify_char_sum_tables, system, bad) == witness
    assert not whole[:, -1].any()
    for r in list(range(40)) + [len(ks) - 1]:
        assert [_xsum(ctx, s, int(ks[r])) for s in sets] == whole[r].tolist()


# --- orbit evaluation and the closed-form root sums ------------------------

@pytest.mark.parametrize("params, d", [
    ((3, 5, 1, 1), 2), ((3, 7, 1, 1), 3), ((3, 5, 2, 1), 6),
    ((3, 257, 1, 1), 8), ((3, 19, 1, 1), 9), ((13, 17, 1, 1), 12)])
def test_orbit_sums_match_power_sums(params, d):
    system = build_system(*params)
    ctx = build_extension(system.constants.half_period)
    N = ctx.N
    assert ctx.d == d
    # k that share a factor with N have orbits under k -> 4k shorter than d
    lengths = {k: next(s for s in range(1, d + 1) if k * 4**s % N == k)
               for k in range(1, N)}
    assert min(lengths.values()) < d == max(lengths.values())
    folded = build_sequence(system, Mapping(2, 3, 1, 0, 3),
                            allow_degenerate=True).symbols
    folded = folded[:N] ^ folded[N:]
    rng = np.random.default_rng(N)
    sets = ([h_set(system, cid) for cid in system.classes]
            + [np.nonzero(folded == v)[0] for v in (1, 2, 3)]
            + [np.array([], dtype=np.int64), np.array([0, N - 1]),
               rng.choice(2 * N, size=N // 3, replace=False)])
    assert np.array_equal(
        extfield._orbit_sums(ctx, sets),
        extfield._power_sums(ctx.beta_powers, sets, np.arange(1, N)))


def _x_to_d(d):
    # the least irreducible of degree d without its leading X^d, packed
    return _to_packed(least_irreducible(d)[:d], d)


def test_square_and_frobenius_tables_match_field_arithmetic():
    rng = random.Random(914)
    for d in range(1, 13):
        x_to_d = _x_to_d(d)
        square, frobenius = extfield._linear_maps(d, x_to_d)
        xs = [rng.randrange(4**d) for _ in range(300)]
        arr = np.array(xs, dtype=np.uint32)
        squares = [gf4.field_mul(x, x, d, x_to_d) for x in xs]
        assert extfield._vec_linear(
            arr, np.array(square, dtype=np.uint32)).tolist() == squares
        assert extfield._vec_linear(arr, frobenius).tolist() == \
            [gf4.field_mul(y, y, d, x_to_d) for y in squares]
        with pytest.raises(ValueError):
            frobenius[0, 1] = 0
    for N in (15, 21, 45, 771, 221):
        ctx = build_extension(N)
        xs = [rng.randrange(4**ctx.d) for _ in range(300)]
        got = extfield._vec_linear(
            np.array(xs, dtype=np.uint32),
            extfield._linear_maps(ctx.d, ctx.x_to_d)[1])
        assert got.tolist() == [ctx.pow(x, 4) for x in xs]


def _power_table_reference(x, size, d, x_to_d):
    # the sequential table: one field_mul per entry
    out = [1]
    for _ in range(size - 1):
        out.append(gf4.field_mul(out[-1], x, d, x_to_d))
    return out


@pytest.mark.parametrize("d", [1, 2, 8, 12])
def test_power_table_matches_sequential_reference(d):
    rng = random.Random(915 + d)
    x_to_d = _x_to_d(d)
    # 0, 1, X, alpha (the low bit of the hi plane), every digit 3
    xs = [0, 1, 2, 1 << d, 4**d - 1] + [rng.randrange(4**d)
                                        for _ in range(4)]
    for x in xs:
        want = _power_table_reference(x, 65, d, x_to_d)
        for size in (1, 2, 3, 4, 5, 16, 17, 63, 64, 65):
            got = extfield._power_table(x, size, d, x_to_d)
            assert got.dtype == np.uint32
            assert got.tolist() == want[:size], (x, size)


def _ext_pow_reference(x, e, d, x_to_d):
    # plain square and multiply, every step a field_mul
    out = 1
    while e:
        if e & 1:
            out = gf4.field_mul(out, x, d, x_to_d)
        x = gf4.field_mul(x, x, d, x_to_d)
        e >>= 1
    return out


def test_ext_pow_matches_square_and_multiply(monkeypatch):
    rng = random.Random(916)
    for d in range(1, 13):
        x_to_d = _x_to_d(d)
        order = 4**d - 1
        for _ in range(40):
            x = rng.randrange(4**d)
            for e in (0, 1, 2, 3, 4, rng.randrange(4**d),
                      rng.randrange(4**(2 * d))):
                assert extfield.ext_pow(x, e, d, x_to_d) == \
                    _ext_pow_reference(x, e, d, x_to_d), (d, x, e)
            if x:
                assert extfield.ext_pow(x, order, d, x_to_d) == 1
        assert extfield.ext_pow(0, 0, d, x_to_d) == 1
        assert extfield.ext_pow(0, order, d, x_to_d) == 0
    # squares come from the table: one field_mul per set bit below the top
    calls = []
    real = gf4.field_mul
    x_to_d = _x_to_d(12)
    monkeypatch.setattr(gf4, "field_mul",
                        lambda *args: calls.append(args) or real(*args))
    for e in (0, 1, 2, 4**12 - 1, 241, 17, 4095, 1 << 23):
        calls.clear()
        extfield.ext_pow(3, e, 12, x_to_d)
        assert len(calls) == max(bin(e).count("1") - 1, 0), e


def _direct_root_sums(system, ctx, a, b, l):
    # the per-k root tables the closed form replaced: the sum over the base
    # class of zeta^(u t), gathered from zeta's own power table at every u
    c = system.constants
    p, q, m, n = c.p, c.q, c.m, c.n

    def root_sums(shape, i, j, zeta_exp, mult):
        table = extfield._power_table(ctx.pow(ctx.beta, zeta_exp),
                                      ctx.N // zeta_exp, ctx.d, ctx.x_to_d)
        base = [system.classes[ClassId(shape, i, j, h)] for h in (0, 1)]
        return extfield._power_sums(table, base, mult * l)

    return {"2pq": root_sums("pq", 1, 1, p**(m - 1) * q**(n - 1), 1),
            "2p": root_sums("p", 1, 0, p**(m - 1) * q**n, q**b),
            "2q": root_sums("q", 0, 1, p**m * q**(n - 1), p**a)}


@pytest.mark.parametrize("params", [
    (3, 5, 1, 1), (5, 3, 1, 1), (3, 7, 1, 1), (7, 3, 1, 1), (3, 5, 2, 1),
    (5, 3, 2, 1), (3, 5, 1, 2), (5, 3, 1, 2), (3, 13, 1, 1)])
def test_boundary_roots_match_direct_reference(params):
    system = build_system(*params)
    ctx = build_extension(system.constants.half_period)
    p, q, N = params[0], params[1], ctx.N
    ks = np.arange(1, N, dtype=np.int64)
    a = extfield._valuations(ks, p, N)
    b = extfield._valuations(ks, q, N)
    l = ks // (p**a * q**b)
    want = _direct_root_sums(system, ctx, a, b, l)
    got = extfield._boundary_roots(system, ctx, a, b, l)
    assert got.keys() == want.keys()
    for shape in want:
        assert got[shape].dtype == want[shape].dtype
        assert np.array_equal(got[shape], want[shape]), shape
    # the Gaussian periods never read beta_powers
    blank = dataclasses.replace(ctx, beta_powers=np.zeros_like(
        ctx.beta_powers))
    for shape, table in extfield._boundary_roots(system, blank, a, b,
                                                 l).items():
        assert np.array_equal(table, got[shape])


def test_boundary_roots_reject_a_nonunit_multiplier(sys15, ctx15):
    zero = np.zeros(5, dtype=np.int64)
    l = np.array([1, 2, 4, 7, 8], dtype=np.int64)
    roots = extfield._boundary_roots(sys15, ctx15, zero, zero, l)
    assert all(table.shape == (5, 2) for table in roots.values())
    with pytest.raises(LemmaViolation) as info:
        extfield._boundary_roots(sys15, ctx15, zero, zero, l + 3)
    assert info.value.witness == {"shape": "pq", "u": 5}


# --- byte tables, the direct beta and the root prefilter -------------------

def _vec_linear_per_bit(arr, images):
    # the per-bit kernel the byte tables replaced: XOR the image of every
    # set bit, one pass over the array per bit
    acc = np.zeros_like(arr)
    for bit, image in enumerate(images):
        acc ^= (arr >> bit & 1) * image
    return acc


@pytest.mark.parametrize("d", range(1, 13))
def test_byte_tables_match_per_bit_reference(d):
    # 2d = 2..24 bits: for d not a multiple of 4 the last byte is partial
    rng = np.random.default_rng(d)
    images = rng.integers(0, 4**d, 2 * d, dtype=np.uint32)
    tables = extfield._byte_tables(images)
    assert tables.shape == (-(-2 * d // 8), 256)
    arrays = [rng.integers(0, 4**d, 500, dtype=np.uint32),
              rng.integers(0, 4**d, (37, 5), dtype=np.uint32),
              np.zeros(9, dtype=np.uint32), np.zeros((3, 0), dtype=np.uint32),
              1 << np.arange(2 * d, dtype=np.uint32), images]
    for arr in arrays:
        got = extfield._vec_linear(arr, tables)
        assert got.dtype == np.uint32 and got.shape == arr.shape
        assert np.array_equal(got, _vec_linear_per_bit(arr, images))
        # the bytes are read in value order, whatever the array's own
        assert np.array_equal(
            extfield._vec_linear(arr.astype(">u4"), tables), got)
    # the single bits map to their own images
    assert np.array_equal(extfield._vec_linear(arrays[4], tables), images)


# the 19 systems of the benchmark's verify grid
VERIFY_GRID = [
    (7, 73, 1, 1), (3, 19, 3, 1), (3, 73, 2, 1), (3, 241, 1, 1),
    (3, 257, 1, 1), (5, 31, 2, 1), (5, 41, 2, 1), (5, 241, 1, 1),
    (31, 41, 1, 1), (5, 257, 1, 1), (19, 73, 1, 1), (7, 241, 1, 1),
    (3, 73, 3, 1), (23, 89, 1, 1), (3, 683, 1, 1), (3, 241, 2, 1),
    (13, 241, 1, 1), (17, 241, 1, 1), (17, 257, 1, 1)]


@pytest.mark.parametrize("params", VERIFY_GRID + [
    (3, 5, 1, 1), (5, 3, 1, 1), (3, 7, 1, 1), (3, 5, 2, 1)])
def test_beta_has_order_exactly_n(params):
    p, q, m, n = params
    N = p**m * q**n
    ctx = build_extension(N)
    assert _order(ctx, ctx.beta) == N
    assert ctx.beta == ctx.pow(ctx.beta_base, ctx.group_order // N)
    # beta_base is the first c from x on that gives order N, polynomials
    # ordered as base-4 numbers (digit i worth 4^i), not by packed code
    for code in range(4, 4**ctx.d):
        digits = [(code >> 2 * i) & 3 for i in range(ctx.d)]
        c = _to_packed(np.array(digits, dtype=np.uint8), ctx.d)
        if c == ctx.beta_base:
            break
        assert _order(ctx, ctx.pow(c, ctx.group_order // N)) < N
    else:
        raise AssertionError("beta_base not met in the scan")
    assert ctx.beta_powers[1] == ctx.beta
    assert _mul(ctx, int(ctx.beta_powers[-1]), ctx.beta) == 1
    # beta's table and zeta_pq's, which _boundary_roots builds afresh,
    # against the sequential reference
    assert ctx.beta_powers.tolist() == _power_table_reference(
        ctx.beta, N, ctx.d, ctx.x_to_d)
    zeta = ctx.pow(ctx.beta, N // (p * q))
    assert extfield._power_table(zeta, p * q, ctx.d, ctx.x_to_d).tolist() \
        == _power_table_reference(zeta, p * q, ctx.d, ctx.x_to_d)


def test_root_prefilter_matches_evaluation():
    for d in range(1, 5):
        for code in range(4**(d + 1)):
            coeffs = tuple((code >> (2 * i)) & 3 for i in range(d + 1))
            has_root = any(_eval_gf4(gf4.poly(coeffs), v) == 0
                           for v in (1, 2, 3))
            assert extfield._has_gf4_root(coeffs) == has_root, coeffs


# --- one field per degree ---------------------------------------------------

def test_least_irreducible_is_searched_once_and_read_only():
    assert least_irreducible.cache_info().maxsize == \
        extfield.DEFAULT_DEGREE_CAP
    for d in (1, 5, 12):
        first = least_irreducible(d)
        assert least_irreducible(d) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 2
    # d = 3 for N = 21 and N = 63, d = 12 for N = 4 097 and N = 3 133
    for small, large in ((21, 63), (3133, 4097)):
        a, b = build_extension(small), build_extension(large)
        assert a.d == b.d and a.modulus is b.modulus
        assert extfield._linear_maps(a.d, a.x_to_d) is \
            extfield._linear_maps(b.d, b.x_to_d)


def test_import_builds_no_field():
    code = ("from cycloseq import extfield; "
            "print(extfield.least_irreducible.cache_info().currsize, "
            "extfield._linear_maps.cache_info().currsize)")
    src = pathlib.Path(extfield.__file__).parent.parent
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.split() == ["0", "0"]


def test_repeat_verify_makes_few_field_products(monkeypatch, capsys):
    # d = 12 at N = 4 097: the modulus and its byte tables are cached, and
    # squarings and power tables run on byte tables, so a repeat call
    # multiplies only at the set bits of its exponents
    argv = ["verify", "--p", "17", "--q", "241"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    calls = []
    real = gf4.field_mul

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gf4, "field_mul", counted)
    assert cli.main(argv) == 0
    assert 0 < len(calls) <= 64
    report = json.loads(capsys.readouterr().out)
    assert report["case_table"]["checked"] == 4097
