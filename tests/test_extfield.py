"""Extension-field arithmetic and the character-sum verifications."""

import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from cycloseq import gf4
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


def test_packed_roundtrip():
    rng = random.Random(911)
    for _ in range(50):
        d = rng.randrange(1, 10)
        coeffs = [rng.randrange(4) for _ in range(d)]
        packed = _to_packed(np.array(coeffs, dtype=np.uint8), d)
        assert packed < 4**d
        back = _from_packed(packed, d)
        assert gf4.poly_eq(back, gf4.poly_trim(np.array(coeffs,
                                                        dtype=np.uint8)))


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
    # lower degree, formed with poly_mul; a scalar multiple of a
    # polynomial is irreducible exactly when the polynomial is
    def monic(deg):
        return [gf4.poly(c + (1,))
                for c in itertools.product(range(4), repeat=deg)]

    for d, scalar in ((4, 2), (5, 3)):
        reducible = {gf4.poly_to_digits(gf4.poly_mul(f, g))
                     for low in range(1, d // 2 + 1)
                     for f in monic(low) for g in monic(d - low)}
        for poly in monic(d):
            irreducible = gf4.poly_to_digits(poly) not in reducible
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
            got = ctx.mul(x, y)
            prod = gf4.poly_mul(_from_packed(x, ctx.d),
                                _from_packed(y, ctx.d))
            rem = gf4.poly_divmod(prod, ctx.modulus)[1]
            assert got == _to_packed(rem, ctx.d)


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
                    acc = ctx.mul(acc, x) ^ gf4.pack_scalar(int(sym), ctx.d)
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
            acc ^= ctx.mul(_xsum(ctx, np.nonzero(folded == v)[0], k),
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
    for first_k in (0, 1):
        assert np.array_equal(
            extfield._orbit_sums(ctx, sets, first_k),
            extfield._power_sums(ctx.beta_powers, sets,
                                 np.arange(first_k, N)))


def test_frobenius_images_match_pow():
    rng = random.Random(914)
    for N in (15, 21, 45, 771, 221):
        ctx = build_extension(N)
        xs = [rng.randrange(4**ctx.d) for _ in range(300)]
        got = extfield._vec_linear(
            np.array(xs, dtype=np.uint32),
            extfield._byte_tables(extfield._frobenius_images(ctx)))
        assert got.tolist() == [ctx.pow(x, 4) for x in xs]


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
    # the single bits map to their own images
    assert np.array_equal(extfield._vec_linear(arrays[4], tables), images)


@pytest.mark.parametrize("params", [
    (7, 73, 1, 1), (3, 19, 3, 1), (3, 73, 2, 1), (3, 241, 1, 1),
    (3, 257, 1, 1), (5, 31, 2, 1), (5, 41, 2, 1), (5, 241, 1, 1),
    (31, 41, 1, 1), (5, 257, 1, 1), (19, 73, 1, 1), (7, 241, 1, 1),
    (3, 73, 3, 1), (23, 89, 1, 1), (3, 683, 1, 1), (3, 241, 2, 1),
    (13, 241, 1, 1), (17, 241, 1, 1), (17, 257, 1, 1),
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
    assert ctx.mul(int(ctx.beta_powers[-1]), ctx.beta) == 1


def test_root_prefilter_matches_evaluation():
    for d in range(1, 5):
        for code in range(4**(d + 1)):
            coeffs = tuple((code >> (2 * i)) & 3 for i in range(d + 1))
            has_root = any(_eval_gf4(gf4.poly(coeffs), v) == 0
                           for v in (1, 2, 3))
            assert extfield._has_gf4_root(coeffs) == has_root, coeffs
