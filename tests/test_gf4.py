"""GF(4) scalars and polynomial arithmetic."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloseq import gf4
from cycloseq.errors import DivisionByZeroPolynomial, InvalidParams


def gf4_add(a, b):
    """Field addition: exclusive-or of encodings (characteristic 2)."""
    return a ^ b


def poly_add(a, b):
    """Sum; coefficientwise exclusive-or with zero padding."""
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[: len(b)] ^= b
    return gf4.poly_trim(out)


def poly_scale(f, s):
    """Multiply every coefficient by the scalar s."""
    return gf4.poly_trim(gf4.MUL_TABLE[s, f]) if s else f[:0]


def test_field_tables():
    # alpha^2 = alpha + 1, addition is xor
    assert gf4.gf4_mul(gf4.ALPHA, gf4.ALPHA) == gf4.ALPHA1
    assert gf4.gf4_mul(gf4.ALPHA, gf4.ALPHA1) == 1
    assert gf4_add(gf4.ALPHA, gf4.ALPHA1) == 1
    for x in range(4):
        assert gf4.gf4_mul(x, 0) == 0
        assert gf4.gf4_mul(x, 1) == x
        if x:
            assert gf4.gf4_mul(x, gf4.gf4_inv(x)) == 1
    with pytest.raises(InvalidParams):
        gf4.gf4_inv(0)


def test_field_axioms_random():
    rng = random.Random(4)
    for _ in range(200):
        x, y, z = (rng.randrange(4) for _ in range(3))
        assert gf4.gf4_mul(x, gf4_add(y, z)) == \
            gf4_add(gf4.gf4_mul(x, y), gf4.gf4_mul(x, z))
        assert gf4.gf4_mul(x, y) == gf4.gf4_mul(y, x)
        assert gf4_add(x, x) == 0


def test_poly_basics():
    p = gf4.poly([1, 1])  # x + 1
    sq = gf4.poly_mul(p, p)
    assert gf4.poly_eq(sq, gf4.poly([1, 0, 1]))  # frobenius: (x+1)^2 = x^2+1
    assert gf4.poly_deg(gf4.poly([])) == -1
    assert gf4.poly_is_zero(gf4.poly_trim(gf4.poly([0, 0])))
    with pytest.raises(InvalidParams):
        gf4.poly([1, 4])


def test_poly_divmod_example():
    q, r = gf4.poly_divmod(gf4.poly([1, 0, 1]), gf4.poly([1, 1]))
    assert gf4.poly_eq(q, gf4.poly([1, 1]))
    assert gf4.poly_is_zero(r)
    with pytest.raises(DivisionByZeroPolynomial):
        gf4.poly_divmod(gf4.poly([1]), gf4.poly([]))


def test_poly_gcd_example():
    g = gf4.poly_gcd(gf4.poly([1, 0, 1]), gf4.poly([1, 1]))
    assert gf4.poly_eq(g, gf4.poly([1, 1]))
    with pytest.raises(InvalidParams):
        gf4.poly_gcd(gf4.poly([]), gf4.poly([]))
    # gcd of anything with zero is the monic normalization of the other
    g2 = gf4.poly_gcd(gf4.poly([]), gf4.poly([0, 2]))
    assert gf4.poly_eq(g2, gf4.poly([0, 1]))


def test_poly_derivative():
    # d/dx (x^3 + alpha x^2 + x + 1) = x^2 + 1 in characteristic 2
    d = gf4.poly_derivative(gf4.poly([1, 1, 2, 1]))
    assert gf4.poly_eq(d, gf4.poly([1, 0, 1]))
    assert gf4.poly_is_zero(gf4.poly_derivative(gf4.poly([3])))


def test_mul_divmod_roundtrip_random():
    rng = np.random.default_rng(1234)
    for _ in range(300):
        a = gf4.poly_trim(rng.integers(0, 4, int(rng.integers(1, 40)))
                          .astype(np.uint8))
        b = gf4.poly_trim(rng.integers(0, 4, int(rng.integers(1, 20)))
                          .astype(np.uint8))
        if gf4.poly_is_zero(b):
            continue
        prod = gf4.poly_mul(a, b)
        q, r = gf4.poly_divmod(prod, b)
        assert gf4.poly_eq(q, a)
        assert gf4.poly_is_zero(r)
        # division identity on arbitrary a
        q2, r2 = gf4.poly_divmod(a, b)
        back = poly_add(gf4.poly_mul(q2, b), r2)
        assert gf4.poly_eq(back, a)
        assert gf4.poly_deg(r2) < gf4.poly_deg(b)


def test_gcd_divides_both_random():
    rng = np.random.default_rng(77)
    for _ in range(200):
        a = gf4.poly_trim(rng.integers(0, 4, int(rng.integers(1, 30)))
                          .astype(np.uint8))
        b = gf4.poly_trim(rng.integers(0, 4, int(rng.integers(1, 30)))
                          .astype(np.uint8))
        if gf4.poly_is_zero(a) or gf4.poly_is_zero(b):
            continue
        g = gf4.poly_gcd(a, b)
        assert int(g[-1]) == 1  # monic
        for f in (a, b):
            _, rem = gf4.poly_divmod(f, g)
            assert gf4.poly_is_zero(rem)


def test_x_pow_n_minus_1():
    f = gf4.x_pow_n_minus_1(5)
    assert gf4.poly_deg(f) == 5
    assert int(f[0]) == 1 and int(f[5]) == 1 and int(f[2]) == 0


def test_digits_roundtrip():
    assert gf4.poly_to_digits(gf4.poly([])) == "0"
    assert gf4.poly_to_digits(gf4.poly([1, 2, 1])) == "121"
    p = gf4.poly_from_digits("103")
    assert gf4.poly_eq(p, gf4.poly([1, 0, 3]))
    with pytest.raises(InvalidParams):
        gf4.poly_from_digits("14")


def test_monic():
    m = gf4.poly_monic(gf4.poly([2, 2]))
    assert gf4.poly_eq(m, gf4.poly([1, 1]))
    with pytest.raises(DivisionByZeroPolynomial):
        gf4.poly_monic(gf4.poly([]))


digit_lists = st.lists(st.integers(0, 3), max_size=200)


@given(digit_lists)
def test_planes_roundtrip(digits):
    f = gf4.poly(digits)
    hi, lo = gf4.to_planes(f)
    assert [2 * ((hi >> i) & 1) + ((lo >> i) & 1) for i in range(len(f))] \
        == [int(c) for c in f]
    assert max(hi.bit_length(), lo.bit_length()) == len(f)
    back = gf4.from_planes(hi, lo)
    assert back.dtype == np.uint8 and np.array_equal(back, f)


def test_planes_scale_matches_table():
    for digits in ([1, 2, 3, 0, 1], [3, 3], [0, 0, 2]):
        f = gf4.poly(digits)
        for c in range(4):
            scaled = gf4.from_planes(*gf4.planes_scale(*gf4.to_planes(f), c))
            assert np.array_equal(scaled, poly_scale(f, c))


@settings(deadline=None)
@given(digit_lists, digit_lists.filter(any))
def test_poly_divmod_identity(a_digits, b_digits):
    a, b = gf4.poly(a_digits), gf4.poly(b_digits)
    q, r = gf4.poly_divmod(a, b)
    assert q.dtype == r.dtype == np.uint8
    assert np.array_equal(q, gf4.poly_trim(q))
    assert np.array_equal(r, gf4.poly_trim(r))
    assert gf4.poly_deg(r) < gf4.poly_deg(b)
    assert np.array_equal(poly_add(gf4.poly_mul(q, b), r), a)


@given(digit_lists)
def test_poly_to_digits_matches_joined_digits(digits):
    f = gf4.poly(digits)
    text = gf4.poly_to_digits(f)
    assert type(text) is str
    assert text == ("".join(str(int(c)) for c in f) or "0")
    assert np.array_equal(gf4.poly_from_digits(text), f)


def test_poly_to_digits_large_and_strided():
    assert gf4.poly_to_digits(gf4.x_pow_n_minus_1(20250)) == \
        "1" + "0" * 20249 + "1"
    # a view with a stride, as slices of symbol arrays are
    assert gf4.poly_to_digits(np.array([1, 9, 2, 9, 3], np.uint8)[::2]) \
        == "123"
