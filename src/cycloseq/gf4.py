"""The four-element field and polynomials over it.

Field elements are the plain integers 0..3. The two bits (c1, c0) of a
value encode c1*alpha + c0, where alpha satisfies alpha**2 = alpha + 1:

    0 <-> 0    1 <-> 1    2 <-> alpha    3 <-> alpha + 1

Addition is bitwise exclusive-or of encodings; multiplication is a 16-entry
table. The same digits 0..3 are the on-disk symbol encoding used by
sequence files and reports.

Polynomials are numpy uint8 coefficient arrays, index = power of x, with no
trailing zeros in canonical form. The zero polynomial is the empty array
and poly_deg returns -1 for it (the "minus infinity" sentinel in degree
comparisons).

The long-running kernels (division, gcd, and Berlekamp-Massey in
analysis) work on bit planes instead: a vector of digits becomes two
Python ints (hi, lo) where bit i of hi is c1 and bit i of lo is c0 of
digit i. Adding two vectors is one exclusive-or per plane, shifting by x^k
is one shift per plane, and multiplying by a scalar only swaps and mixes
the planes (planes_scale). to_planes and from_planes convert between the
two forms.
"""

import numpy as np

from .errors import DivisionByZeroPolynomial, InvalidParams

ZERO, ONE, ALPHA, ALPHA1 = 0, 1, 2, 3

# MUL_TABLE[a, b] = a*b, worked out once from alpha**2 = alpha + 1.
MUL_TABLE = np.array(
    [[0, 0, 0, 0],
     [0, 1, 2, 3],
     [0, 2, 3, 1],
     [0, 3, 1, 2]], dtype=np.uint8)

# Plain-int copy for single lookups inside Python loops.
_MUL = MUL_TABLE.tolist()

# INV_TABLE[a] = 1/a for a != 0; the nonzero elements form a 3-cycle.
INV_TABLE = (0, 1, 3, 2)

SYMBOL_NAMES = ("0", "1", "alpha", "alpha+1")


def gf4_add(a, b):
    """Field addition: exclusive-or of encodings (characteristic 2)."""
    return a ^ b


def gf4_mul(a, b):
    """Field multiplication via the table."""
    return _MUL[a][b]


def gf4_inv(a):
    """Multiplicative inverse of a nonzero element."""
    if a == 0:
        raise InvalidParams("0 has no multiplicative inverse")
    return INV_TABLE[a]


def poly(coeffs):
    """Canonical polynomial from an iterable of coefficients 0..3."""
    arr = np.asarray(list(coeffs), dtype=np.uint8)
    if arr.size and arr.max() > 3:
        raise InvalidParams("coefficients must be in 0..3")
    return poly_trim(arr)


def poly_trim(f):
    """Strip trailing zero coefficients."""
    f = np.asarray(f, dtype=np.uint8)
    nz = np.nonzero(f)[0]
    if nz.size == 0:
        return f[:0]
    return f[: nz[-1] + 1]


def poly_deg(f):
    """Degree of a canonical polynomial; -1 for the zero polynomial."""
    return len(f) - 1


def poly_is_zero(f):
    return len(f) == 0


def poly_eq(a, b):
    return np.array_equal(poly_trim(a), poly_trim(b))


def poly_add(a, b):
    """Sum; coefficientwise exclusive-or with zero padding."""
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[: len(b)] ^= b
    return poly_trim(out)


def poly_mul(a, b):
    """Schoolbook product; fine at desk scale."""
    if poly_is_zero(a) or poly_is_zero(b):
        return a[:0]
    if len(a) > len(b):
        a, b = b, a
    out = np.zeros(len(a) + len(b) - 1, dtype=np.uint8)
    for i in np.nonzero(a)[0]:
        out[i: i + len(b)] ^= MUL_TABLE[a[i], b]
    return poly_trim(out)


def poly_scale(f, s):
    """Multiply every coefficient by the scalar s."""
    return poly_trim(MUL_TABLE[s, f]) if s else f[:0]


def poly_monic(f):
    """Scale a nonzero polynomial so its leading coefficient is 1."""
    if poly_is_zero(f):
        raise DivisionByZeroPolynomial("cannot normalize the zero polynomial")
    lead = int(f[-1])
    if lead == 1:
        return f
    return MUL_TABLE[INV_TABLE[lead], f]


def poly_divmod(a, b):
    """Quotient and remainder with deg r < deg b."""
    b1, b0 = to_planes(b)
    if not (b1 | b0):
        raise DivisionByZeroPolynomial("division by the zero polynomial")
    quot, r1, r0 = _divmod_planes(*to_planes(a), b1, b0)
    return np.array(quot, dtype=np.uint8), from_planes(r1, r0)


def poly_gcd(a, b):
    """Monic greatest common divisor by the Euclidean algorithm."""
    a1, a0 = to_planes(a)
    b1, b0 = to_planes(b)
    if not (a1 | a0 | b1 | b0):
        raise InvalidParams("gcd(0, 0) is undefined")
    while b1 | b0:
        _, r1, r0 = _divmod_planes(a1, a0, b1, b0)
        a1, a0, b1, b0 = b1, b0, r1, r0
    return poly_monic(from_planes(a1, a0))


def to_planes(f):
    """(hi, lo) bit planes of a digit array; bit i holds digit i."""
    f = np.asarray(f, dtype=np.uint8)
    return (int.from_bytes(np.packbits(f >> 1, bitorder="little"), "little"),
            int.from_bytes(np.packbits(f & 1, bitorder="little"), "little"))


def from_planes(hi, lo):
    """Canonical polynomial (uint8 digits) from its (hi, lo) bit planes."""
    size = max(hi.bit_length(), lo.bit_length())
    nbytes = (size + 7) // 8
    hi_bits, lo_bits = (
        np.unpackbits(np.frombuffer(plane.to_bytes(nbytes, "little"),
                                    dtype=np.uint8),
                      count=size, bitorder="little")
        for plane in (hi, lo))
    return (hi_bits << 1) | lo_bits


def planes_scale(hi, lo, c):
    """Planes of c * (hi, lo) for a field element c.

    alpha * (h alpha + l) = (h + l) alpha + h, and
    (alpha + 1) * (h alpha + l) = l alpha + (h + l).
    """
    if c == 1:
        return hi, lo
    if c == 2:
        return hi ^ lo, hi
    if c == 3:
        return lo, hi ^ lo
    return 0, 0


def _divmod_planes(r1, r0, b1, b0):
    """Long division on planes: (quotient digits, rem hi, rem lo).

    b must be nonzero. Each step cancels the leading digit of the
    remainder with one scaled, shifted copy of b.
    """
    db = max(b1.bit_length(), b0.bit_length()) - 1
    quot_digit = _MUL[INV_TABLE[((b1 >> db) & 1) << 1 | ((b0 >> db) & 1)]]
    top = max(r1.bit_length(), r0.bit_length()) - 1
    quot = [0] * max(top - db + 1, 0)
    while top >= db:
        shift = top - db
        c = quot_digit[((r1 >> top) & 1) << 1 | ((r0 >> top) & 1)]
        m1, m0 = planes_scale(b1, b0, c)
        r1 ^= m1 << shift
        r0 ^= m0 << shift
        quot[shift] = c
        top = max(r1.bit_length(), r0.bit_length()) - 1
    return quot, r1, r0


def poly_derivative(f):
    """Formal derivative; even-power terms vanish in characteristic 2."""
    if len(f) <= 1:
        return f[:0]
    out = np.zeros(len(f) - 1, dtype=np.uint8)
    out[0::2] = f[1::2]
    return poly_trim(out)


def x_pow_n_minus_1(n):
    """x**n - 1, which is x**n + 1 here."""
    if n < 1:
        raise InvalidParams(f"need n >= 1, got {n}")
    out = np.zeros(n + 1, dtype=np.uint8)
    out[0] = out[n] = 1
    return out


def poly_to_digits(f):
    """Coefficient digits, constant term first; '0' for the zero polynomial."""
    if poly_is_zero(f):
        return "0"
    return "".join(str(int(c)) for c in f)


def poly_from_digits(s):
    """Inverse of poly_to_digits."""
    if not s or any(ch not in "0123" for ch in s):
        raise InvalidParams(f"not a GF(4) digit string: {s!r}")
    return poly_trim(np.frombuffer(s.encode(), dtype=np.uint8) - ord("0"))
