"""GF(4) scalars and polynomial arithmetic."""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mul, poly
from cycloseq import gf4
from cycloseq.errors import InvalidParams
from cycloseq.extfield import least_irreducible


def gf4_add(a, b):
    """Field addition: exclusive-or of encodings (characteristic 2)."""
    return a ^ b


def poly_add(a, b):
    """Sum; coefficientwise exclusive-or with zero padding."""
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[: len(b)] ^= b
    return np.trim_zeros(out, "b")


def poly_scale(f, s):
    """Multiply every coefficient by the scalar s."""
    return np.trim_zeros(gf4.MUL_TABLE[s, f], "b") if s else f[:0]


def schoolbook(a, b):
    """uint8 product: one table-scaled copy of b per nonzero digit of a."""
    if not len(a) or not len(b):
        return a[:0]
    out = np.zeros(len(a) + len(b) - 1, dtype=np.uint8)
    for i in np.nonzero(a)[0]:
        out[i: i + len(b)] ^= gf4.MUL_TABLE[a[i], b]
    return np.trim_zeros(out, "b")


def _schoolbook_mod(f, modulus):
    """uint8 remainder: cancel the top digit with a table-scaled modulus."""
    r, db = f.copy(), len(modulus) - 1
    inv = gf4.INV_TABLE[int(modulus[-1])]
    for top in range(len(r) - 1, db - 1, -1):
        if r[top]:
            r[top - db: top + 1] ^= gf4.MUL_TABLE[
                gf4.MUL_TABLE[r[top], inv], modulus]
    return np.trim_zeros(r[:db], "b")


def test_field_tables():
    # alpha^2 = alpha + 1, addition is xor
    assert mul(gf4.ALPHA, gf4.ALPHA) == gf4.ALPHA1
    assert mul(gf4.ALPHA, gf4.ALPHA1) == 1
    assert gf4_add(gf4.ALPHA, gf4.ALPHA1) == 1
    for x in range(4):
        assert mul(x, 0) == 0
        assert mul(x, 1) == x
        if x:
            assert mul(x, gf4.INV_TABLE[x]) == 1


def test_field_axioms_random():
    rng = random.Random(4)
    for _ in range(200):
        x, y, z = (rng.randrange(4) for _ in range(3))
        assert mul(x, gf4_add(y, z)) == \
            gf4_add(mul(x, y), mul(x, z))
        assert mul(x, y) == mul(y, x)
        assert gf4_add(x, x) == 0


def test_poly_basics():
    p = gf4.to_planes([1, 1])  # x + 1
    # frobenius: (x+1)^2 = x^2+1
    assert gf4.mul_planes(*p, *p) == gf4.to_planes([1, 0, 1])


def test_poly_divmod_example():
    q, r = gf4.poly_divmod(poly([1, 0, 1]), poly([1, 1]))
    assert np.array_equal(q, poly([1, 1]))
    assert len(r) == 0
    with pytest.raises(InvalidParams,
                       match="^division by the zero polynomial$"):
        gf4.poly_divmod(poly([1]), poly([]))


def test_poly_gcd_example():
    g = gf4.poly_gcd(poly([1, 0, 1]), poly([1, 1]))
    assert np.array_equal(g, poly([1, 1]))
    with pytest.raises(InvalidParams):
        gf4.poly_gcd(poly([]), poly([]))
    # gcd of anything with zero is the monic normalization of the other
    g2 = gf4.poly_gcd(poly([]), poly([0, 2]))
    assert np.array_equal(g2, poly([0, 1]))


def _random_planes(rng, size):
    return int(rng.integers(0, 1 << size)), int(rng.integers(0, 1 << size))


def test_mul_divmod_roundtrip_random():
    rng = np.random.default_rng(1234)
    for _ in range(300):
        a = _random_planes(rng, int(rng.integers(1, 40)))
        b = _random_planes(rng, int(rng.integers(1, 20)))
        if b == (0, 0):
            continue
        prod = gf4.mul_planes(*a, *b)
        assert gf4.divmod_planes(*prod, *b) == (*a, 0, 0)
        # division identity on arbitrary a
        q1, q0, r1, r0 = gf4.divmod_planes(*a, *b)
        b_size = max(b[0].bit_length(), b[1].bit_length())
        assert max(r1.bit_length(), r0.bit_length()) < b_size
        q_b = gf4.mul_planes(q1, q0, *b)
        assert (q_b[0] ^ r1, q_b[1] ^ r0) == a


def test_gcd_divides_both_random():
    rng = np.random.default_rng(77)
    for _ in range(200):
        a = _random_planes(rng, int(rng.integers(1, 30)))
        b = _random_planes(rng, int(rng.integers(1, 30)))
        if (0, 0) in (a, b):
            continue
        g1, g0 = gf4.gcd_planes(*a, *b)
        assert g0.bit_length() > g1.bit_length()  # monic: top digit 1
        for f in (a, b):
            assert gf4.divmod_planes(*f, g1, g0)[2:] == (0, 0)


def test_digits_roundtrip():
    assert gf4.poly_to_digits(poly([])) == "0"
    assert gf4.poly_to_digits(gf4.from_planes(0, 0)) == "0"
    assert gf4.poly_to_digits(poly([1, 2, 1])) == "121"
    # 1 + (alpha + 1) x^2 on planes: hi 0b100, lo 0b101
    assert gf4.poly_to_digits(gf4.from_planes(0b100, 0b101)) == "103"
    assert gf4.to_planes(poly([1, 0, 3, 0])) == (0b100, 0b101)


def test_monic():
    m = gf4.monic_planes(*gf4.to_planes([2, 2]))
    assert m == gf4.to_planes([1, 1])
    for digits in ([3], [1, 3], [0, 2, 1], [3, 0, 0, 2], [2, 1, 3]):
        hi, lo = gf4.monic_planes(*gf4.to_planes(digits))
        want = gf4.MUL_TABLE[gf4.INV_TABLE[digits[-1]], digits]
        assert np.array_equal(gf4.from_planes(hi, lo), want)


def test_monic_planes_rejects_zero():
    with pytest.raises(InvalidParams,
                       match="^cannot normalize the zero polynomial$"):
        gf4.monic_planes(0, 0)


def test_divmod_planes_rejects_zero_divisor():
    for a in ((1, 1), (0, 0), (0, 1 << 40 | 1)):
        with pytest.raises(InvalidParams,
                           match="^division by the zero polynomial$"):
            gf4.divmod_planes(*a, 0, 0)


digit_lists = st.lists(st.integers(0, 3), max_size=200)


@given(digit_lists)
def test_planes_roundtrip(digits):
    f = poly(digits)
    hi, lo = gf4.to_planes(f)
    assert [2 * ((hi >> i) & 1) + ((lo >> i) & 1) for i in range(len(f))] \
        == [int(c) for c in f]
    assert max(hi.bit_length(), lo.bit_length()) == len(f)
    back = gf4.from_planes(hi, lo)
    assert back.dtype == np.uint8 and np.array_equal(back, f)


def test_planes_scale_matches_table():
    for digits in ([1, 2, 3, 0, 1], [3, 3], [0, 0, 2]):
        f = poly(digits)
        for c in range(4):
            scaled = gf4.from_planes(*gf4.planes_scale(*gf4.to_planes(f), c))
            assert np.array_equal(scaled, poly_scale(f, c))


@settings(deadline=None)
@given(digit_lists, digit_lists.filter(any))
def test_poly_divmod_identity(a_digits, b_digits):
    a, b = poly(a_digits), poly(b_digits)
    q, r = gf4.poly_divmod(a, b)
    assert q.dtype == r.dtype == np.uint8
    assert np.array_equal(q, np.trim_zeros(q, "b"))
    assert np.array_equal(r, np.trim_zeros(r, "b"))
    assert len(r) < len(b)
    assert np.array_equal(poly_add(schoolbook(q, b), r), a)


@st.composite
def division_cases(draw):
    """(q, b, r) with deg r < deg b: b may be a constant, and q may have
    runs of zero digits inside it."""
    b = poly(draw(st.lists(st.integers(0, 3), max_size=40))
                 + [draw(st.integers(1, 3))])
    pieces = draw(st.lists(
        st.one_of(st.lists(st.integers(1, 3), min_size=1, max_size=8),
                  st.integers(1, 30).map(lambda k: [0] * k)),
        max_size=8))
    q = poly([c for piece in pieces for c in piece])
    r = poly(draw(st.lists(st.integers(0, 3), max_size=len(b) - 1)))
    return q, b, r


@settings(deadline=None, max_examples=300)
@given(division_cases())
def test_divmod_planes_matches_schoolbook(case):
    q, b, r = case
    a = poly_add(schoolbook(q, b), r)
    # q and r are the only pair with a = q b + r and deg r < deg b
    assert gf4.divmod_planes(*gf4.to_planes(a), *gf4.to_planes(b)) == \
        (*gf4.to_planes(q), *gf4.to_planes(r))


def _euclid_by_divmod(a, b):
    """Monic gcd by Euclid on divmod_planes, keeping its remainders."""
    while b != (0, 0):
        a, b = b, gf4.divmod_planes(*a, *b)[2:]
    return gf4.monic_planes(*a)


@st.composite
def gcd_operands(draw):
    """Two polynomials on planes, not both zero, with a random common
    factor: of random degrees, of equal degrees, one of them zero, one a
    nonzero constant, or both the same polynomial."""
    def of_degree(deg):
        return poly(draw(st.lists(st.integers(0, 3), min_size=deg,
                                      max_size=deg))
                        + [draw(st.integers(1, 3))])

    common = of_degree(draw(st.integers(0, 8)))
    a = schoolbook(of_degree(draw(st.integers(0, 40))), common)
    kind = draw(st.sampled_from(("random", "equal degrees", "zero",
                                 "constant", "equal")))
    if kind == "zero":
        b = poly([])
    elif kind == "constant":
        b = of_degree(0)
    elif kind == "equal":
        b = a
    else:
        deg = (len(a) - len(common) if kind == "equal degrees"
               else draw(st.integers(0, 40)))
        b = schoolbook(of_degree(deg), common)
    if draw(st.booleans()):
        a, b = b, a
    return gf4.to_planes(a), gf4.to_planes(b)


@settings(deadline=None, max_examples=300)
@given(gcd_operands())
def test_gcd_planes_matches_euclid_by_divmod(operands):
    a, b = operands
    assert gf4.gcd_planes(*a, *b) == _euclid_by_divmod(a, b)


@given(digit_lists, digit_lists)
def test_mul_planes_matches_schoolbook(a_digits, b_digits):
    a, b = poly(a_digits), poly(b_digits)
    prod = gf4.mul_planes(*gf4.to_planes(a), *gf4.to_planes(b))
    assert prod == gf4.to_planes(schoolbook(a, b))


@functools.cache
def _field(d):
    modulus = least_irreducible(d)
    return modulus, gf4.pack(*gf4.to_planes(modulus[:d]), d)


@pytest.mark.parametrize("d", range(1, 13))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_field_mul_matches_reduced_schoolbook(d, data):
    modulus, x_to_d = _field(d)
    elements = st.lists(st.integers(0, 3), max_size=d).map(poly)
    a, b = data.draw(elements), data.draw(elements)
    packed = []
    for f in (a, b):
        x = gf4.pack(*gf4.to_planes(f), d)
        assert 0 <= x < 4**d
        assert np.array_equal(gf4.from_planes(*gf4.unpack(x, d)), f)
        packed.append(x)
    want = _schoolbook_mod(schoolbook(a, b), modulus)
    got = gf4.field_mul(*packed, d, x_to_d)
    assert np.array_equal(gf4.from_planes(*gf4.unpack(got, d)), want)
    for c in range(4):
        assert gf4.pack_scalar(c, d) == gf4.pack(*gf4.to_planes([c]), d)


@given(digit_lists)
def test_poly_to_digits_matches_joined_digits(digits):
    f = poly(digits)
    text = gf4.poly_to_digits(f)
    assert type(text) is str
    assert text == ("".join(str(int(c)) for c in f) or "0")
    assert np.array_equal(poly(int(ch) for ch in text), f)


def test_poly_to_digits_large_and_strided():
    assert gf4.poly_to_digits(gf4.from_planes(0, 1 << 20250 | 1)) == \
        "1" + "0" * 20249 + "1"
    # a view with a stride, as slices of symbol arrays are
    assert gf4.poly_to_digits(np.array([1, 9, 2, 9, 3], np.uint8)[::2]) \
        == "123"


@given(st.integers(0, 2**300), st.integers(1, 40))
def test_fold_xors_the_blocks(x, width):
    # x mod x^width - 1 over GF(2), one width-bit block at a time
    want = 0
    for start in range(0, x.bit_length(), width):
        want ^= (x >> start) & ((1 << width) - 1)
    assert gf4.fold(x, width) == want
