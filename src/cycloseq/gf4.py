"""The four-element field and polynomials over it.

Field elements are the plain integers 0..3. The two bits (c1, c0) of a
value encode c1*alpha + c0, where alpha satisfies alpha**2 = alpha + 1:

    0 <-> 0    1 <-> 1    2 <-> alpha    3 <-> alpha + 1

Addition is bitwise exclusive-or of encodings; multiplication is a 16-entry
table. The same digits 0..3 are the on-disk symbol encoding used by
sequence files and reports.

Polynomials are numpy uint8 coefficient arrays, index = power of x, with no
trailing zeros in canonical form; the zero polynomial is the empty array,
of degree -1. Products, division and gcd run on bit planes, which the uint8
functions wrap: a vector of digits becomes two Python ints (hi, lo), bit i
of hi being c1 and bit i of lo c0 of digit i. Adding is one exclusive-or
per plane, shifting by x^k one shift per plane, a scalar multiple a mix of
the planes (planes_scale), a product three carry-less products.

An element of F_{4^d} = GF(4)[X]/(f), f monic of degree d, packs its
remainder's planes into one int: lo in bits 0..d-1, hi in bits d..2d-1.
That fits uint32 for d <= 12; pack, unpack and planes_scale also work on
numpy arrays, and field_mul multiplies. No other module knows the layout.
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


def poly_mul(a, b):
    """Product of two polynomials."""
    return from_planes(*mul_planes(*to_planes(a), *to_planes(b)))


def poly_monic(f):
    """Scale a nonzero polynomial so its leading coefficient is 1."""
    hi, lo = to_planes(f)
    if not (hi | lo):
        raise DivisionByZeroPolynomial("cannot normalize the zero polynomial")
    return from_planes(*monic_planes(hi, lo))


def poly_divmod(a, b):
    """Quotient and remainder with deg r < deg b."""
    b1, b0 = to_planes(b)
    if not (b1 | b0):
        raise DivisionByZeroPolynomial("division by the zero polynomial")
    quot, r1, r0 = divmod_planes(*to_planes(a), b1, b0)
    return np.array(quot, dtype=np.uint8), from_planes(r1, r0)


def poly_gcd(a, b):
    """Monic greatest common divisor by the Euclidean algorithm."""
    return from_planes(*gcd_planes(*to_planes(a), *to_planes(b)))


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


def gcd_planes(a1, a0, b1, b0):
    """Planes of the monic gcd of two polynomials given as planes."""
    if not (a1 | a0 | b1 | b0):
        raise InvalidParams("gcd(0, 0) is undefined")
    while b1 | b0:
        _, r1, r0 = divmod_planes(a1, a0, b1, b0)
        a1, a0, b1, b0 = b1, b0, r1, r0
    return monic_planes(a1, a0)


def monic_planes(hi, lo):
    """Planes of the monic scalar multiple of a nonzero polynomial."""
    top = max(hi.bit_length(), lo.bit_length()) - 1
    lead = ((hi >> top) & 1) << 1 | ((lo >> top) & 1)
    return planes_scale(hi, lo, INV_TABLE[lead])


def _clmul(a, b):
    # carry-less product: one shifted copy of b per set bit of a
    out = 0
    while a:
        low = a & -a
        out ^= b << (low.bit_length() - 1)
        a ^= low
    return out


def mul_planes(a1, a0, b1, b0):
    """Planes of a product: with alpha^2 = alpha + 1, hi = a1 b1 + a1 b0 +
    a0 b1 = (a1 + a0)(b1 + b0) + a0 b0 and lo = a1 b1 + a0 b0. The cost is
    one shifted copy of b per set bit of a, so a should be the sparser."""
    low = _clmul(a0, b0)
    return _clmul(a1 ^ a0, b1 ^ b0) ^ low, _clmul(a1, b1) ^ low


def pack(hi, lo, d):
    """Packed F_{4^d} element from the planes of its remainder (deg < d)."""
    return hi << d | lo


def unpack(x, d):
    """(hi, lo) planes of a packed F_{4^d} element."""
    return x >> d, x & ((1 << d) - 1)


def pack_scalar(c, d):
    """The field element c (0..3) as a packed F_{4^d} element."""
    return pack(c >> 1, c & 1, d)


def field_mul(x, y, d, x_to_d):
    """Product of packed elements of GF(4)[X]/(X^d + x_to_d), x_to_d being
    the monic modulus without its leading term. Horner over the digits of
    y, top first, read at bits d - 1 and 2d - 1 as y moves up: times X,
    the digit leaving degree d - 1 folded back in times x_to_d, plus the
    digit times x, both looked up among their four scalar multiples, which
    planes_scale gives (written out here for speed)."""
    keep = ((1 << 2 * d) - 1) ^ (1 << d)  # lo's top bit, shifted into hi
    hi_top, lo_top, mask = 2 * d - 2, d - 1, (1 << d) - 1
    hi, lo = x_to_d >> d, x_to_d & mask
    folds = 0, x_to_d, (hi ^ lo) << d | hi, lo << d | (hi ^ lo)
    hi, lo = x >> d, x & mask
    terms = 0, x, (hi ^ lo) << d | hi, lo << d | (hi ^ lo)
    acc = 0
    for _ in range(d):
        acc = (((acc << 1) & keep)
               ^ folds[((acc >> hi_top) & 2) | ((acc >> lo_top) & 1)]
               ^ terms[((y >> hi_top) & 2) | ((y >> lo_top) & 1)])
        y <<= 1
    return acc


def divmod_planes(r1, r0, b1, b0):
    """Long division on planes: (quotient digits, rem hi, rem lo).

    b must be nonzero. Each step cancels the leading digit of the
    remainder with one scaled, shifted copy of b.
    """
    db = max(b1.bit_length(), b0.bit_length()) - 1
    quot_digit = _MUL[INV_TABLE[((b1 >> db) & 1) << 1 | ((b0 >> db) & 1)]]
    # c * b for c = 1, 2, 3, as planes_scale makes them, once per call
    scaled = (None, (b1, b0), (b1 ^ b0, b1), (b0, b1 ^ b0))
    top = max(r1.bit_length(), r0.bit_length()) - 1
    quot = [0] * max(top - db + 1, 0)
    while top >= db:
        shift = top - db
        c = quot_digit[((r1 >> top) & 1) << 1 | ((r0 >> top) & 1)]
        m1, m0 = scaled[c]
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
    return (np.asarray(f, dtype=np.uint8) + ord("0")).tobytes().decode()


def poly_from_digits(s):
    """Inverse of poly_to_digits."""
    if not s or any(ch not in "0123" for ch in s):
        raise InvalidParams(f"not a GF(4) digit string: {s!r}")
    return poly_trim(np.frombuffer(s.encode(), dtype=np.uint8) - ord("0"))
