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

from conftest import ALL_MAPPINGS, DOUBLED_SHAPES, class_table
from cycloseq import cli, cyclotomy, gf4
from cycloseq.analysis import lc_via_gcd
from cycloseq import extfield
from cycloseq.cyclotomy import (ClassId, build_system, cell_char_sums,
                                cell_index, cells, check_structural_lemmas,
                                h_set)
from cycloseq.errors import (CapExceeded, CaseViolation, CycloseqError,
                             InvalidMapping, InvalidParams, LemmaViolation)
from cycloseq.extfield import (build_extension, is_irreducible,
                               least_irreducible, measure_spectrum,
                               verify_case_table, verify_char_sum_tables)
from cycloseq.numtheory import build_system_constants, factorize
from cycloseq.sequence import (DEFAULT_MAPPING, Mapping, build_sequence,
                               spectrum_profile, validate_mapping)

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
        assert ctx15.pow(x, 4**ctx15.d - 1) == 1
    assert ctx15.pow(0, 5) == 0
    with pytest.raises(InvalidParams):
        ctx15.pow(2, -1)


def _order(ctx, x):
    # multiplicative order of a nonzero packed element
    order = 4**ctx.d - 1
    for r in factorize(order):
        while order % r == 0 and ctx.pow(x, order // r) == 1:
            order //= r
    return order


def _first_base(ctx):
    # the first c from x on with c^((4^d - 1)/N) of order N, polynomials
    # ordered as base-4 numbers (digit i worth 4^i), not by packed code
    for code in range(4, 4**ctx.d):
        digits = [(code >> 2 * i) & 3 for i in range(ctx.d)]
        c = _to_packed(np.array(digits, dtype=np.uint8), ctx.d)
        if _order(ctx, ctx.pow(c, (4**ctx.d - 1) // ctx.N)) == ctx.N:
            return c
    raise AssertionError("no c gives order N")


def _zeta(ctx, r):
    # beta^(N/r): a primitive r-th root of unity for every divisor r of N
    return ctx.pow(ctx.beta, ctx.N // r)


def test_context_shape(ctx15, ctx21):
    assert ctx15.d == 2 and 4**ctx15.d - 1 == 15
    # 4^2 - 1 = 15 = N: beta generates the whole multiplicative group
    assert _order(ctx15, ctx15.beta) == 15
    assert ctx21.d == 3
    assert ctx21.beta == ctx21.pow(_first_base(ctx21), 3)
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
    # at k = 0 every term is beta^0 = 1: the sum is the parity of the set
    sets = [h_set(sys15, lab) for lab in sys15.labels]
    assert extfield._power_sums(ctx15.beta_powers, sets, [0])[0].tolist() \
        == [len(ts) % 2 for ts in sets] != [0] * len(sets)


def test_complementary_sums():
    # the two cosets of the pq-level partition sum to 1 at any unit k; the
    # 2pq H-sets at (i, j) = (1, 1) are the pq ones mod N
    for params in ((3, 5, 1, 1), (3, 5, 2, 1)):
        system = build_system(*params)
        ctx = build_extension(system.constants.half_period)
        pq = params[0] * params[1]
        units = [k for k in range(1, ctx.N) if math.gcd(k, pq) == 1]
        sums = extfield._power_sums(
            ctx.beta_powers,
            [h_set(system, ClassId("2pq", 1, 1, h)) for h in (0, 1)], units)
        assert (sums[:, 0] ^ sums[:, 1] == 1).all()


def test_context_mismatch(sys15, ctx21):
    with pytest.raises(InvalidParams):
        verify_char_sum_tables(sys15, ctx21)
    with pytest.raises(InvalidParams):
        verify_case_table(sys15, ctx21, DEFAULT_MAPPING)


def test_case_table_names_both_values_of_a_mismatched_n(sys15, ctx15, sys21,
                                                       ctx21):
    # a char-sum report, a system and a context for different N are
    # refused by name, both ways, before any table is read
    chars15 = verify_char_sum_tables(sys15, ctx15)
    chars21 = verify_char_sum_tables(sys21, ctx21)
    for system, ctx, chars, message in (
            (sys15, ctx15, chars21, "char sums were checked for N = 21, "
                                    "context N = 15"),
            (sys21, ctx21, chars15, "char sums were checked for N = 15, "
                                    "context N = 21"),
            (sys15, ctx21, chars21, "system has N = 15, context N = 21"),
            (sys21, ctx15, chars15, "system has N = 21, context N = 15")):
        with pytest.raises(InvalidParams) as info:
            verify_case_table(system, ctx, DEFAULT_MAPPING, char_sums=chars)
        assert str(info.value) == message


def test_measure_spectrum_matches_direct_eval(sys15, ctx15, sys21, ctx21):
    # direct Horner evaluation of S(x) at beta^k, for every mapping and k; a
    # GF4 scalar embeds as the packed constant (gf4.pack_scalar), so xor-ing
    # the symbol in is exact
    for system, ctx in ((sys15, ctx15), (sys21, ctx21)):
        chars = verify_char_sum_tables(system, ctx)
        for mapping in ALL_MAPPINGS:
            seq = _degenerate_seq(system, mapping)
            spec = measure_spectrum(ctx, chars, seq)
            assert len(spec) == ctx.N
            for k in range(ctx.N):
                x = int(ctx.beta_powers[k])
                acc = 0
                for sym in seq.symbols[::-1]:
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
        lc = lc_via_gcd(seq.symbols)[0]
        assert rep.max_complexity_predicted == (lc == seq.period)


@pytest.mark.parametrize("params", [(3, 5), (3, 7), (17, 3)], ids=str)
def test_case_table_verdicts_agree_with_lc(params):
    # on every mapping verify_case_table accepts, the measured spectrum has
    # no zero exactly when predict_lc and the gcd route give LC = 2N
    system = build_system(*params, 1, 1)
    ctx = build_extension(system.half_period)
    reports = {}
    for mapping in ALL_MAPPINGS:
        try:
            rep = verify_case_table(system, ctx, mapping)
        except InvalidMapping:
            continue
        reports[mapping] = rep
        lc = lc_via_gcd(build_sequence(system, mapping).symbols)[0]
        assert (rep.all_values_nonzero == rep.max_complexity_predicted
                == (lc == system.period)), mapping
    assert list(reports) == [mapping for mapping in ALL_MAPPINGS
                             if not validate_mapping(params[0], mapping)]
    if params == (3, 7):
        # the reduced witness passes the mod-8 rule
        assert not reports[Mapping(0, 3, 1, 2, 1)].all_values_nonzero


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


def test_beta_cycle_is_checked(monkeypatch, cold_builds):
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


def _valuation(x, prime, cap=math.inf):
    # the power of prime in x, at most cap; every power divides x = 0
    if x == 0:
        return cap
    v = 0
    while v < cap and x % prime == 0:
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
        for t in class_table(system, ClassId(shape, ri, rj, cid.h)):
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
    cells = [lab for lab in system.labels[2:] if lab.shape in DOUBLED_SHAPES]
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


def _unchecked_report(system, ctx):
    # a char-sum report whose table is gathered by _orbit_sums and never
    # checked, so a spectrum can be read off a corrupted context's table
    columns = system.labels[2::2]
    sets = [h_set(system, cid) % ctx.N for cid in columns]
    table = extfield._orbit_sums(ctx, sets)
    return extfield.CharSumReport(ctx.N - 1, table.size, table, columns, sets)


def _degenerate_seq(system, mapping):
    return build_sequence(system, mapping, allow_degenerate=True)


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
            with pytest.raises(LemmaViolation) as info:
                verify_char_sum_tables(
                    system, dataclasses.replace(ctx, beta_powers=bp))
            # row 1 is gathered, and reads every entry but beta^0
            if position:
                assert info.value.witness["k"] == 1, (position, bit)


@pytest.mark.parametrize("params, position", [
    ((3, 7, 1, 1), 7), ((3, 5, 2, 1), 2), ((3, 5, 1, 1), 0)])
def test_case_table_witness_matches_reference(params, position):
    system = build_system(*params)
    ctx = build_extension(system.constants.half_period)
    raised = set()
    for bad in [ctx] + _corrupted_contexts(ctx, position):
        unchecked = _unchecked_report(system, bad)
        for mapping in (DEFAULT_MAPPING, Mapping(0, 3, 1, 2, 1),
                        Mapping(3, 2, 0, 1, 1), Mapping(2, 3, 1, 0, 3)):
            got = _outcome(verify_case_table, system, bad, mapping,
                           unchecked)
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
    for mapping in ALL_MAPPINGS:
        want = _three_support_spectrum(system, ctx, mapping)
        got = measure_spectrum(ctx, chars, _degenerate_seq(system, mapping))
        assert got.dtype == np.uint32 and np.array_equal(got, want), mapping


@pytest.mark.parametrize("params", [(3, 5, 1, 1), (3, 7, 1, 1)])
def test_spectrum_off_the_table_under_every_table_flip(params):
    # both routes are GF(2)-linear in beta_powers and fill the same orbits,
    # so a corrupted table gives the gather's answer bit for bit. The one
    # exception is a beta^0 outside GF(2): the old gather raised the t = 0
    # term to the 2^i-th power on row k 2^i of each orbit, while
    # measure_spectrum reads beta_powers[0] on every row; the two agree
    # once t = 0 is read alike
    system = build_system(*params)
    ctx = build_extension(system.constants.half_period)
    flips = itertools.product(range(ctx.N), range(2 * ctx.d))
    moved = 0
    for i, (position, bit) in enumerate(flips):
        bp = ctx.beta_powers.copy()
        bp[position] ^= 1 << bit
        bad = dataclasses.replace(ctx, beta_powers=bp)
        unchecked = _unchecked_report(system, bad)
        outside = bool(int(bp[0]) & ~1)
        for mapping in (DEFAULT_MAPPING, ALL_MAPPINGS[i % 72]):
            got = measure_spectrum(bad, unchecked,
                                   _degenerate_seq(system, mapping))
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
    swapped = dataclasses.replace(sys15, partition=part)
    # the report checked on the real system: the cells keep their members,
    # the values move
    chars = verify_char_sum_tables(sys15, ctx15)
    seq = build_sequence(swapped, DEFAULT_MAPPING)
    calls = [lambda: measure_spectrum(ctx15, chars, seq),
             lambda: verify_case_table(swapped, ctx15, DEFAULT_MAPPING,
                                       char_sums=chars)]
    for call in calls:
        with pytest.raises(LemmaViolation, match="not constant") as info:
            call()
        assert info.value.witness == {"cell": cell, "t": int(ts[1])}
    # the swapped partition fails the label check and, its H-sets read off
    # it, the char-sum check, so verify never reads its spectrum
    (found,) = check_structural_lemmas(swapped)
    assert found.witness["index"] == min(u1, u2)
    with pytest.raises(LemmaViolation, match="off its closed form"):
        verify_char_sum_tables(swapped, ctx15)
    # given no report, the case table makes the label check first
    with pytest.raises(LemmaViolation) as info:
        verify_case_table(swapped, ctx15, DEFAULT_MAPPING)
    assert str(info.value) == str(found)
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
        verify_case_table(system, bad, DEFAULT_MAPPING,
                          char_sums=_unchecked_report(system, bad))
    assert (info.value.k, info.value.expected, info.value.measured) == \
        (1, "3", "33")


@pytest.mark.parametrize("params", [(3, 5, 1, 1), (3, 7, 1, 1)], ids=str)
def test_case_table_reads_no_unchecked_table(params, monkeypatch):
    # without char_sums, the case table checks the char-sum table first: a
    # flipped beta power raises the char-sum violation, with its witness k
    # and H-set, and no spectrum is read off the corrupted table
    system = build_system(*params)
    ctx = build_extension(system.half_period)
    calls, real = [], extfield.measure_spectrum

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(extfield, "measure_spectrum", spy)
    for position in range(ctx.N):
        bp = ctx.beta_powers.copy()
        bp[position] ^= 1
        bad = dataclasses.replace(ctx, beta_powers=bp)
        got = _outcome(verify_case_table, system, bad, DEFAULT_MAPPING)
        assert got == _outcome(verify_char_sum_tables, system, bad)
        assert got[0] == "LemmaViolation", position
        assert {"k", "cell"} <= got[2]["witness"].keys()
    assert not calls
    assert verify_case_table(system, ctx, DEFAULT_MAPPING).checked == ctx.N
    assert len(calls) == 1


def test_verify_cap_keeps_products_in_int32():
    # _power_sums forms k t mod N in int32, k and t below N
    assert (extfield.VERIFY_N_CAP - 1)**2 < 2**31


def test_blocked_kernel_matches_single_block(monkeypatch):
    system = build_system(3, 5, 2, 1)
    ctx = build_extension(system.constants.half_period)
    bad = _corrupted_contexts(ctx, 2)[0]
    sets = [h_set(system, lab) for lab in system.labels[2:]
            if lab.shape in DOUBLED_SHAPES] + [np.array([], dtype=np.int64)]
    ks = np.append(np.arange(-3, 2 * ctx.N), 10**15 + 7)
    whole = extfield._power_sums(ctx.beta_powers, sets, ks)
    seq = build_sequence(system, DEFAULT_MAPPING)
    spectrum = measure_spectrum(ctx, _unchecked_report(system, ctx), seq)
    witness = _outcome(verify_char_sum_tables, system, bad)
    for budget in (1, 50, 1000):
        monkeypatch.setattr(extfield, "_BLOCK_ELEMENTS", budget)
        assert np.array_equal(
            extfield._power_sums(ctx.beta_powers, sets, ks), whole)
        assert np.array_equal(measure_spectrum(
            ctx, _unchecked_report(system, ctx), seq), spectrum)
        assert _outcome(verify_char_sum_tables, system, bad) == witness
    assert not whole[:, -1].any()
    for r in list(range(40)) + [len(ks) - 1]:
        assert [_xsum(ctx, s, int(ks[r])) for s in sets] == whole[r].tolist()


# --- orbit evaluation and the closed-form root sums ------------------------

def _doubling_orbits(N):
    # the orbits of k -> 2k mod N on 1..N-1, the 2-cyclotomic cosets
    seen, count = set(), 0
    for k in range(1, N):
        count += k not in seen
        while k not in seen:
            seen.add(k)
            k = 2 * k % N
    return count


# every row of an orbit of k -> 2k is filled from its least k, the one row
# gathered. At N = 511, ord_N(2) = ord_N(4) = 9, so the lookup over
# i = 0..2d writes each row twice; p > q at (17, 3) and (5, 3, 2, 1)
@pytest.mark.parametrize("params, d", [
    ((3, 5, 1, 1), 2), ((3, 7, 1, 1), 3), ((3, 5, 2, 1), 6),
    ((3, 257, 1, 1), 8), ((3, 19, 1, 1), 9), ((13, 17, 1, 1), 12),
    ((7, 73, 1, 1), 9), ((17, 3, 1, 1), 4), ((5, 3, 2, 1), 10),
    ((7, 17, 1, 1), 12)])
def test_orbit_sums_match_power_sums(params, d, monkeypatch):
    system = build_system(*params)
    ctx = build_extension(system.constants.half_period)
    N = ctx.N
    assert ctx.d == d
    # k that share a factor with N have orbits under k -> 2k shorter than
    # the longest, which divides 2d
    lengths = {k: next(s for s in range(1, 2 * d + 1) if k * 2**s % N == k)
               for k in range(1, N)}
    assert min(lengths.values()) < max(lengths.values())
    assert (2 * d) % max(lengths.values()) == 0
    folded = build_sequence(system, Mapping(2, 3, 1, 0, 3),
                            allow_degenerate=True).symbols
    folded = folded[:N] ^ folded[N:]
    rng = np.random.default_rng(N)
    sets = ([h_set(system, lab) for lab in system.labels]
            + [np.nonzero(folded == v)[0] for v in (1, 2, 3)]
            + [np.array([], dtype=np.int64), np.array([0, N - 1]),
               rng.choice(2 * N, size=N // 3, replace=False)])
    assert np.array_equal(
        extfield._orbit_sums(ctx, sets),
        extfield._power_sums(ctx.beta_powers, sets, np.arange(1, N)))
    # one gathered row per orbit of k -> 2k
    gathered, real = [], extfield._power_sums
    monkeypatch.setattr(extfield, "_power_sums", lambda beta_powers, s, ks:
                        gathered.append(len(ks)) or real(beta_powers, s, ks))
    extfield._orbit_sums(ctx, sets)
    assert gathered == [_doubling_orbits(N)]


def _x_to_d(d):
    # the least irreducible of degree d without its leading X^d, packed
    return _to_packed(least_irreducible(d)[:d], d)


def test_square_and_frobenius_tables_match_field_arithmetic():
    # column i of the stack is y -> y^(2^i), i = 0..2d: i squarings
    rng = random.Random(914)
    for d in range(1, 13):
        x_to_d = _x_to_d(d)
        maps = extfield._linear_maps(d, x_to_d)
        assert maps.shape[-1] == 2 * d + 1
        xs = [rng.randrange(4**d) for _ in range(300)]
        got = extfield._vec_linear(np.array(xs, dtype=np.uint32), maps)
        for i in range(2 * d + 1):
            assert got[:, i].tolist() == xs, (d, i)
            xs = [gf4.field_mul(x, x, d, x_to_d) for x in xs]
        assert not maps.flags.writeable
        with pytest.raises(ValueError):
            maps[0, 1, 2] = 0
    for N in (15, 21, 45, 771, 221):
        ctx = build_extension(N)
        xs = [rng.randrange(4**ctx.d) for _ in range(300)]
        got = extfield._vec_linear(
            np.array(xs, dtype=np.uint32),
            extfield._linear_maps(ctx.d, ctx.x_to_d)[..., 2])
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
        base = [class_table(system, ClassId(shape, i, j, h)) for h in (0, 1)]
        return extfield._power_sums(table, base, mult * l)

    return {"2pq": root_sums("pq", 1, 1, p**(m - 1) * q**(n - 1), 1),
            "2p": root_sums("p", 1, 0, p**(m - 1) * q**n, q**b),
            "2q": root_sums("q", 0, 1, p**m * q**(n - 1), p**a)}


def _cell_of(constants, k):
    # predict_lc's cell of k, by trial division and Euler's criterion
    c = constants
    a = _valuation(k, c.p, c.m)
    b = _valuation(k, c.q, c.n)
    l = k // (c.p**a * c.q**b)
    lp = int(a < c.m and pow(l, (c.p - 1) // 2, c.p) != 1)
    lq = int(b < c.n and pow(l, (c.q - 1) // 2, c.q) != 1)
    return a, b, lp, lq


# one pair per (p mod 8, q mod 8) class, as in the sweep benchmark
CLASS_PAIRS = ((17, 41), (17, 3), (17, 5), (17, 7), (7, 17), (7, 3), (7, 5),
               (7, 23), (3, 17), (3, 11), (3, 5), (3, 7), (5, 17), (5, 3),
               (5, 13), (5, 7))


@pytest.mark.parametrize("params", [
    (p, q, m, n) for p, q in CLASS_PAIRS
    for m, n in ((1, 1), (2, 1), (1, 2), (2, 2))] + [(3, 19, 3, 1)], ids=str)
def test_cells_tile_z_n(params):
    # the cells' sizes add up to N, and the k -> cell map puts exactly that
    # many k in each cell, each where trial division puts it
    c = build_system_constants(*params)
    N = c.half_period
    keys, sizes = zip(*cells(*params))
    assert sum(sizes) == N
    index = cell_index(c)
    assert np.bincount(index, minlength=len(keys)).tolist() == list(sizes)
    # every power of p and q divides k = 0, which lies in (m, n, 0, 0)
    assert _cell_of(c, 0) == (c.m, c.n, 0, 0)
    assert [keys[i] for i in index.tolist()] == [
        _cell_of(c, k) for k in range(N)]


@pytest.mark.parametrize("params", [
    (3, 5, 1, 1), (5, 3, 1, 1), (3, 7, 1, 1), (7, 3, 1, 1), (3, 5, 2, 1),
    (5, 3, 2, 1), (3, 5, 1, 2), (5, 3, 1, 2), (3, 13, 1, 1)])
def test_boundary_roots_match_direct_reference(params):
    # the expected side of verify: cell_char_sums at k's cell, with the
    # measured Gaussian periods, against the root sums gathered at every
    # multiplier (boundary cells) and the scalar closed form (every cell)
    system = build_system(*params)
    ctx = build_extension(system.constants.half_period)
    c, N = system.constants, ctx.N
    periods = extfield._gaussian_periods(ctx, c.p, c.q)
    ks = np.arange(1, N, dtype=np.int64)
    a = np.array([_valuation(k, c.p) for k in range(1, N)])
    b = np.array([_valuation(k, c.q) for k in range(1, N)])
    roots = _direct_root_sums(system, ctx, a, b, ks // (c.p**a * c.q**b))
    boundary = 0
    for r, k in enumerate(range(1, N)):
        got = cell_char_sums(c.p, c.q, c.m, c.n, _cell_of(c, k), periods)
        assert len(got) == len(system.labels[2::2])
        for cid, value in zip(system.labels[2::2], got):
            assert value == _expected_cell(system, ctx, cid, k), (k, cid)
            edge = {"2pq": cid.i == a[r] + 1 and cid.j == b[r] + 1,
                    "2p": cid.i == a[r] + 1, "2q": cid.j == b[r] + 1}
            if edge[cid.shape]:
                boundary += 1
                assert value == roots[cid.shape][r, cid.h], (k, cid)
    assert boundary > 0


@pytest.mark.parametrize("params", [(3, 5, 1, 1), (5, 3, 1, 1),
                                    (7, 17, 1, 1)])
def test_swapped_gaussian_periods_are_caught(params, monkeypatch):
    system = build_system(*params)
    ctx = build_extension(system.constants.half_period)
    verify_char_sum_tables(system, ctx)
    real = extfield._gaussian_periods
    for side in (0, 1):
        def swapped(context, p, q):
            periods = real(context, p, q)
            periods[side] = periods[side][::-1]
            return periods

        monkeypatch.setattr(extfield, "_gaussian_periods", swapped)
        with pytest.raises(LemmaViolation):
            verify_char_sum_tables(system, ctx)


def test_a_gaussian_period_outside_gf4_is_refused(sys21, ctx21):
    # beta of order 63 in F_64 in place of order 21: beta^(21/3) has order
    # 9, so eta_0 of 3, the sum over the one square 1, leaves GF(4)
    x = next(x for x in range(2, 4**ctx21.d) if _order(ctx21, x) == 63)
    bad = dataclasses.replace(ctx21, beta=x)
    with pytest.raises(LemmaViolation) as info:
        verify_char_sum_tables(sys21, bad)
    assert str(info.value).startswith("Gaussian period outside GF(4)")
    assert info.value.witness["prime"] == 3


@pytest.mark.parametrize("params", [(3, 5, 1, 1), (3, 5, 2, 1),
                                    (5, 3, 1, 2), (7, 17, 1, 1)])
def test_expected_table_never_reads_beta_powers(params, monkeypatch):
    # every entry of beta_powers zeroed, the measured table taken from the
    # intact context: the check still passes, so the expected table is the
    # one of the intact context, entry for entry
    system = build_system(*params)
    ctx = build_extension(system.constants.half_period)
    table = verify_char_sum_tables(system, ctx).table
    blank = dataclasses.replace(
        ctx, beta_powers=np.zeros_like(ctx.beta_powers))
    monkeypatch.setattr(extfield, "_orbit_sums", lambda *args: table)
    assert verify_char_sum_tables(system, blank).cells_checked == table.size


def test_a_class_short_of_one_unit_is_caught(sys15, ctx15):
    # the expected side reads no partition, so one position of any
    # doubled-modulus H-set relabelled to its twin coset shows as a
    # mismatch at k = 1
    for cid in sys15.labels[2::2]:
        x = sys15.labels.index(cid)
        part = sys15.partition.copy()
        part[np.flatnonzero(part == x)[0]] = sys15.labels.index(
            cid._replace(h=1 - cid.h))
        with pytest.raises(LemmaViolation) as info:
            verify_char_sum_tables(
                dataclasses.replace(sys15, partition=part), ctx15)
        assert info.value.witness["k"] == 1


@pytest.mark.parametrize("params", [(3, 5, 1, 1), (3, 7, 1, 1)], ids=str)
def test_a_flipped_q_legendre_bit_fails_both_checks(params, monkeypatch):
    # a cell_index that puts each k in the cell of the other q Legendre
    # bit: the labels it names no longer match the paint, and the expected
    # char sums no longer match the measured ones
    system = build_system(*params)
    ctx = build_extension(system.half_period)
    real = cyclotomy.cell_index

    def mutant(constants):
        c = constants
        keys = [key for key, _ in cells(c.p, c.q, c.m, c.n)]
        flipped = [keys.index((a, b, lp, lq ^ (b < c.n)))
                   for a, b, lp, lq in keys]
        return np.array(flipped)[real(constants)]

    for module in (cyclotomy, extfield):
        monkeypatch.setattr(module, "cell_index", mutant)
    assert check_structural_lemmas(system)
    with pytest.raises(LemmaViolation, match="off its closed form"):
        verify_char_sum_tables(system, ctx)


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
    # four maps stacked: one gather gives each map's output in its column
    stacked = rng.integers(0, 4**d, (2 * d, 4), dtype=np.uint32)
    tables = extfield._byte_tables(stacked)
    assert tables.shape == (-(-2 * d // 8), 256, 4)
    for arr in arrays:
        got = extfield._vec_linear(arr, tables)
        assert got.dtype == np.uint32 and got.shape == arr.shape + (4,)
        for j in range(4):
            assert np.array_equal(got[..., j],
                                  _vec_linear_per_bit(arr, stacked[:, j]))


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
    # beta comes from the first c from x on that gives order N
    assert ctx.beta == ctx.pow(_first_base(ctx), (4**ctx.d - 1) // N)
    assert ctx.beta_powers[1] == ctx.beta
    assert _mul(ctx, int(ctx.beta_powers[-1]), ctx.beta) == 1
    # beta's table and that of w = beta^(N/pq), which _gaussian_periods
    # builds afresh, against the sequential reference
    assert ctx.beta_powers.tolist() == _power_table_reference(
        ctx.beta, N, ctx.d, ctx.x_to_d)
    w = ctx.pow(ctx.beta, N // (p * q))
    assert extfield._power_table(w, p * q, ctx.d, ctx.x_to_d).tolist() \
        == _power_table_reference(w, p * q, ctx.d, ctx.x_to_d)
    # the periods read off w's table are those of zeta = beta^(N/r) summed
    # over the squares and the non-squares mod r, power by power
    want = []
    for r in (p, q):
        zeta = ctx.pow(ctx.beta, N // r)
        squares = {x * x % r for x in range(1, r)}
        eta = [0, 0]
        for x in range(1, r):
            eta[x not in squares] ^= ctx.pow(zeta, x)
        want.append(eta)
    assert extfield._gaussian_periods(ctx, p, q) == want


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


def test_repeat_verify_makes_few_field_products(monkeypatch, capsys,
                                               cold_builds):
    # d = 12 at N = 4 097: with the modulus and its byte tables cached, a
    # cold call squares and fills power tables by byte tables, so it
    # multiplies only at the set bits of its exponents; a repeat call reads
    # the held field and char-sum table and multiplies nowhere
    argv = ["verify", "--p", "17", "--q", "241"]
    least_irreducible(12)
    calls = []
    real = gf4.field_mul

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gf4, "field_mul", counted)
    made = []
    for _ in range(2):
        calls.clear()
        assert cli.main(argv) == 0
        made.append(len(calls))
        report = json.loads(capsys.readouterr().out)
        assert report["case_table"]["checked"] == 4097
    assert 0 < made[0] <= 64 and made[1] == 0


def test_each_field_is_built_once_and_held(monkeypatch, cold_builds):
    # build_extension(N) is one read-only context per N, the last
    # HELD_FIELDS by use; a refused N holds nothing and raises every time
    made = []
    real = extfield._power_table
    monkeypatch.setattr(extfield, "_power_table",
                        lambda *args: made.append(args) or real(*args))
    ctx = build_extension(21)
    assert build_extension(21) is ctx and len(made) == 1
    assert not ctx.beta_powers.flags.writeable
    assert not ctx.modulus.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.beta = 1
    for _ in range(2):
        with pytest.raises(CapExceeded):
            build_extension(11 * 13)
        with pytest.raises(InvalidParams):
            build_extension(105)
    info = build_extension.cache_info()
    assert info.currsize == 1
    assert info.maxsize == extfield.HELD_FIELDS == 64
