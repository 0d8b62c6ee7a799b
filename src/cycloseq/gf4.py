"""The four-element field and polynomials over it.

Field elements are the plain integers 0..3. The two bits (c1, c0) of a
value encode c1*alpha + c0, where alpha satisfies alpha**2 = alpha + 1:

    0 <-> 0    1 <-> 1    2 <-> alpha    3 <-> alpha + 1

Addition is bitwise exclusive-or of encodings; multiplication is a 16-entry
table. The same digits 0..3 are the on-disk symbol encoding used by
sequence files and reports.

A polynomial is a pair of Python ints, its bit planes (hi, lo): bit i of
hi is c1 and bit i of lo is c0 of the coefficient of x^i, and the zero
polynomial is (0, 0). Adding is one exclusive-or per plane, shifting by
x^k one shift per plane, a scalar multiple a mix of the planes
(planes_scale), a product three carry-less products; division, gcd and
the monic multiple take and return planes too, and the gcd keeps only
remainders, never forming a quotient; it makes each divisor monic
inline and cancels each leading digit with one of the divisor's three
multiples, after halving a dividend that is long next to its divisor
(_halve). The leading digit is read off the planes' lengths: 1 when lo
is longer, else 2 plus lo's top bit.

Digits are the edge: a numpy uint8 array, index = power of x, with no
trailing zeros (the zero polynomial is empty), as in reports, sequence
files, witnesses and the modulus an extension field keeps; no program
path computes on them. to_planes and from_planes convert, and
poly_to_digits writes the text. A sweep row makes no planes: its LC
comes off the bucket basis (analysis.bucket_lc).

An element of F_{4^d} = GF(4)[X]/(f), f monic of degree d, packs its
remainder's planes into one int: lo in bits 0..d-1, hi in bits d..2d-1.
That fits uint32 for d <= 12; pack, unpack and planes_scale also work on
numpy arrays, and field_mul multiplies. Only extfield also knows the
layout, in _x_multiples and in the bit order of its byte tables.
"""

import numpy as np

from .errors import InvalidParams

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


def poly_divmod(a, b):
    """divmod_planes on digit arrays: (quotient, remainder).

    No program path calls it. It stays because perfbench/tracer.py names
    it in TARGETS, and goes when ROADMAP item 13 re-points the tracer.
    """
    q1, q0, r1, r0 = divmod_planes(*to_planes(a), *to_planes(b))
    return from_planes(q1, q0), from_planes(r1, r0)


def poly_gcd(a, b):
    """gcd_planes on digit arrays: the monic gcd.

    No program path calls it. It stays because perfbench/tracer.py names
    it in TARGETS, and goes when ROADMAP item 13 re-points the tracer.
    """
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
    """Planes of the monic gcd of two polynomials given as planes.

    Euclid on remainders only. Each remainder a mod b cancels a's leading
    digits one by one, each an XOR of one of b's multiples over a's length,
    so a long a and a short b cost about deg a such XORs: quadratic where a
    remainder of small degree follows a long one, as on the fold of
    analysis' same-character constructions (degree 1 after degree N - 1).
    Where b's length is at most 1/64 of a's (and a at least 256 digits
    long), _halve first brings a down to O(deg b log deg a) digits in
    O(log deg a) products by the powers x^(2^k) mod b.
    """
    if not (a1 | a0 | b1 | b0):
        raise InvalidParams("gcd(0, 0) is undefined")
    # a's length; from the second pass on, the length of the last b
    length = max(a1.bit_length(), a0.bit_length())
    while b1 | b0:
        # b made monic inline: times alpha when it leads with alpha^2,
        # times alpha^2 when it leads with alpha; mix = hi + lo follows.
        # Scaling the multiples instead gives the same gcd but carries
        # non-monic remainders, whose planes are often both long where a
        # monic one has a short plane, and so runs slower.
        size, top = b0.bit_length(), b1.bit_length()
        mix = b1 ^ b0
        if size <= top:
            if b0 >> (top - 1):
                b1, b0, mix = mix, b1, b0
            else:
                b1, b0, mix = b0, mix, b1
            size = top
        # b short next to a: halve a first (_halve), so the digit loop
        # below cancels O(deg b log deg a) digits, not deg a - deg b
        if size << 6 <= length and length >= 256:
            a1, a0 = _halve(a1, a0, b1, b0, size, length)
        # a mod b, no quotient: a's leading digit d cancels against d x^k b,
        # which is b, alpha b = (mix, b1) or alpha^2 b = (b0, mix)
        while True:
            low, top = a0.bit_length(), a1.bit_length()
            if low > top:
                shift = low - size
                if shift < 0:
                    break
                a1 ^= b1 << shift
                a0 ^= b0 << shift
            else:
                shift = top - size
                if shift < 0:
                    break
                if a0 >> (top - 1):
                    a1 ^= b0 << shift
                    a0 ^= mix << shift
                else:
                    a1 ^= mix << shift
                    a0 ^= b1 << shift
        a1, a0, b1, b0 = b1, b0, a1, a0
        length = size
    return monic_planes(a1, a0)


def _halve(a1, a0, b1, b0, size, length):
    # a = hi x^h + lo is lo + r hi mod b, with r = x^h mod b, which takes
    # deg a down to about max(h, deg a - h) + deg b; h runs over the
    # powers of two from the one at most deg a down to the one at least
    # deg b + 1 = size, each level one product with r first, O(deg b)
    # shifts. r is squared up from the bottom level: a GF(4) square maps
    # planes (hi, lo) to (hi^2, (hi + lo)^2), and _clmul(v, v) spreads v
    # into the GF(2) square.
    low = 1 << (size - 1).bit_length()
    powers = [divmod_planes(0, 1 << low, b1, b0)[2:]]
    while low << len(powers) < length:
        r1, r0 = powers[-1]
        mix = r1 ^ r0
        powers.append(divmod_planes(_clmul(r1, r1), _clmul(mix, mix),
                                    b1, b0)[2:])
    for k in reversed(range(len(powers))):
        h = low << k
        hi1, hi0 = a1 >> h, a0 >> h
        if hi1 | hi0:
            p1, p0 = mul_planes(*powers[k], hi1, hi0)
            mask = (1 << h) - 1
            a1, a0 = a1 & mask ^ p1, a0 & mask ^ p0
    return a1, a0


def monic_planes(hi, lo):
    """Planes of the monic scalar multiple of a nonzero polynomial."""
    top = hi.bit_length()
    if lo.bit_length() > top:
        return hi, lo
    if not top:
        raise InvalidParams("cannot normalize the zero polynomial")
    return planes_scale(hi, lo, INV_TABLE[2 | (lo >> (top - 1))])


def _clmul(a, b):
    # carry-less product: one shifted copy of b per set bit of a
    out = 0
    while a:
        low = a & -a
        out ^= b << (low.bit_length() - 1)
        a ^= low
    return out


def fold(x, width):
    """x mod x^width - 1 for one GF(2) plane: the XOR of its width-bit
    blocks, halving their count each round."""
    blocks = -(-x.bit_length() // width)
    while blocks > 1:
        blocks = (blocks + 1) // 2
        x = (x & ((1 << blocks * width) - 1)) ^ (x >> blocks * width)
    return x


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
    """Long division on planes: (q hi, q lo, r hi, r lo), deg r < deg b.

    Each step cancels the leading digit of the remainder with one scaled,
    shifted copy of b and sets the matching quotient digit.
    """
    size, low = b1.bit_length(), b0.bit_length()
    if low > size:
        size, lead = low, 1
    elif size:
        lead = 2 | (b0 >> (size - 1))
    else:
        raise InvalidParams("division by the zero polynomial")
    quot_digit = _MUL[INV_TABLE[lead]]
    # the planes of c and of c * b for c = 1, 2, 3, made once per call
    scaled = (None, (0, 1, b1, b0), (1, 0, b1 ^ b0, b1), (1, 1, b0, b1 ^ b0))
    q1 = q0 = 0
    while True:
        top, low = r1.bit_length(), r0.bit_length()
        if low > top:
            top, d = low, 1
        elif top:
            d = 2 | (r0 >> (top - 1))
        if top < size:
            return q1, q0, r1, r0
        shift = top - size
        c1, c0, m1, m0 = scaled[quot_digit[d]]
        q1 |= c1 << shift
        q0 |= c0 << shift
        r1 ^= m1 << shift
        r0 ^= m0 << shift


def poly_to_digits(f):
    """Coefficient digits, constant term first; '0' for the zero polynomial."""
    if len(f) == 0:
        return "0"
    return (np.asarray(f, dtype=np.uint8) + ord("0")).tobytes().decode()
