"""The extension field F_{4^d} and numerical checks of the character sums.

d is the multiplicative order of 4 modulo N = p^m q^n, so F_{4^d} contains
a primitive N-th root of unity beta. Elements are gf4's packed ints (uint32
for d <= 12, addition a plain XOR), multiplied by gf4.field_mul. One field
is built per degree: the least monic irreducible in lexicographic
coefficient order (a candidate with a root in GF(4) skipped, Rabin's test
deciding the rest), with the byte tables of x -> x^2 and x -> x^4. These
maps and times a fixed element are GF(2)-linear, one 256-entry lookup per
input byte (_vec_linear on arrays), so ext_pow squares by table. beta is
the first c^((4^d - 1)/N) of order N, c running from x on, digits compared
from the top, so no group generator is searched for. The module tabulates
beta^r for 0 <= r < N by the base-4 digits of r, not by doubling: a round
is one Frobenius map and three products by beta. Every sum it then measures
is an XOR of beta^(k t mod N) over an index set T, and one kernel,
_power_sums, gathers a table of them in blocks of about _BLOCK_ELEMENTS
elements, so temporary memory stays below a megabyte instead of growing as
N^2. x -> x^4 fixes GF(4), so the row of 4k is the Frobenius image of the
row of k: _orbit_sums gathers only the least k of each orbit of k -> 4k mod
N (the cyclotomic cosets of the Mattson-Solomon view) and walks the orbit
from it. The character sums over the doubled-modulus H-sets are one such
table, checked cell by cell against their closed forms, a mismatch shown at
its least k. The folded sequence s_t + s_(t+N) is constant on each of those
cells, so the spectrum S(beta^k) is a GF(4) combination of the table's
columns, and verify gathers once. The boundary root sums on the expected
side are order-2 Gaussian periods, chosen by the class of the multiplier,
with no Frobenius map and no read of beta_powers.
"""

import functools
import itertools
from dataclasses import asdict, dataclass, field

import numpy as np

from . import gf4
from .cyclotomy import DOUBLED_SHAPES, ClassId, all_class_ids, h_set
from .errors import (CapExceeded, CaseViolation, InvalidMapping,
                     InvalidParams, LemmaViolation)
from .numtheory import factorize, mult_order
from .sequence import build_sequence, spectrum_profile, validate_mapping

VERIFY_N_CAP = 5000
DEFAULT_DEGREE_CAP = 12
# gathered elements per block of _power_sums: 256 KB of int32 indices plus
# 256 KB of gathered uint32, small enough to stay in cache
_BLOCK_ELEMENTS = 1 << 16


# --- packed-element arithmetic -------------------------------------------

def ext_pow(x, e, d, x_to_d):
    """x^e in GF(4)[X]/(X^d + x_to_d), e >= 0: the bits of e from the top,
    squaring by table (_linear_maps) and one field_mul per further set bit."""
    if e < 0:
        raise InvalidParams("negative exponent")
    square = _linear_maps(d, x_to_d)[0]
    out = x if e else 1
    for bit in bin(e)[3:]:
        y, out = out, 0
        for table in square:
            out ^= table[y & 255]
            y >>= 8
        if bit == "1":
            out = gf4.field_mul(out, x, d, x_to_d)
    return out


def _scale(x, c, d):
    # c * x for a GF(4) scalar c and packed x, elementwise on arrays
    return gf4.pack(*gf4.planes_scale(*gf4.unpack(x, d), c), d)


def _byte_tables(images):
    # the GF(2)-linear map with these images of the single bits, as one
    # table per input byte: tables[c, b] = XOR of images[8c + i], i in b
    chunks = np.zeros((-(-len(images) // 8), 8), dtype=np.uint32)
    chunks.flat[:len(images)] = images
    tables = np.zeros((len(chunks), 256), dtype=np.uint32)
    for i in range(8):
        tables[:, 1 << i:2 << i] = tables[:, :1 << i] ^ chunks[:, i, None]
    return tables


def _vec_linear(arr, tables):
    # the map of _byte_tables on a contiguous uint32 array: one lookup per
    # input byte, read through a little-endian byte view
    octets = arr.astype("<u4", copy=False).view(np.uint8)
    acc = np.zeros(arr.shape, dtype=np.uint32)
    for c, table in enumerate(tables):
        acc ^= table[octets[..., c::4]]
    return acc


def _x_multiples(y, count, d, x_to_d):
    # y X^i for 0 <= i < count, one shift and one fold a step: both planes
    # move up a degree, the digit leaving degree d - 1 returns times x_to_d
    out, mask = [y], (1 << d) - 1
    for _ in range(count - 1):
        hi, lo = gf4.unpack(out[-1], d)
        out.append(gf4.pack(hi << 1 & mask, lo << 1 & mask, d)
                   ^ _scale(x_to_d, (hi >> d - 1) << 1 | lo >> d - 1, d))
    return np.array(out, dtype=np.uint32)


@functools.lru_cache(maxsize=DEFAULT_DEGREE_CAP)
def _linear_maps(d, x_to_d):
    """Byte tables of x -> x^2 (tuples, for one element) and x -> x^4
    (read-only, for _vec_linear) modulo X^d + x_to_d. Squaring is
    GF(2)-linear, taking X^i to X^(2i) and alpha X^i to (alpha + 1)
    X^(2i); the images of x -> x^4 are those of squaring, squared."""
    powers = _x_multiples(1, 2 * d - 1, d, x_to_d)[::2]
    images = np.concatenate([powers, _scale(powers, 3, d)])
    square = _byte_tables(images)
    frobenius = _byte_tables(_vec_linear(images, square))
    frobenius.flags.writeable = False
    return tuple(map(tuple, square.tolist())), frobenius


# --- modulus selection -----------------------------------------------------

def is_irreducible(poly):
    """Rabin's test over GF(4), squaring with field_mul modulo poly itself."""
    d = gf4.poly_deg(poly)
    if d <= 1 or poly[0] == 0:  # a constant, a linear factor, or x | poly
        return d == 1
    m1, m0 = gf4.monic_planes(*gf4.to_planes(poly))
    x_to_d = gf4.pack(m1, m0 ^ 1 << d, d)  # poly minus its leading X^d
    x = gf4.pack(0, 0b10, d)
    frob = [x]  # frob[k] = x^(4^k) mod poly
    for _ in range(d):
        t = gf4.field_mul(frob[-1], frob[-1], d, x_to_d)
        frob.append(gf4.field_mul(t, t, d, x_to_d))
    # gcd(x^(4^(d/r)) - x, poly) = 1 for every prime r | d
    return frob[d] == x and all(
        gf4.gcd_planes(*gf4.unpack(frob[d // r] ^ x, d), m1, m0) == (0, 1)
        for r in factorize(d))


def _has_gf4_root(coeffs):
    # v^3 = 1 for v != 0: f(v) = s0 + v s1 + v^2 s2, s_r over degrees = r mod 3
    s = [0, 0, 0]
    for i, c in enumerate(coeffs):
        s[i % 3] ^= c
    return any(s[0] ^ gf4.gf4_mul(v, s[1]) ^ gf4.gf4_mul(v2, s[2]) == 0
               for v, v2 in ((1, 1), (2, 3), (3, 2)))


@functools.lru_cache(maxsize=DEFAULT_DEGREE_CAP)
def least_irreducible(d):
    """Least monic irreducible of degree d, coefficients compared from the
    constant term up, which starts at 1 (else x divides). From degree 2 on,
    a candidate with a root in GF(4) has a linear factor: no Rabin test.
    Searched once per degree; each call returns the same read-only array."""
    if d < 1:
        raise InvalidParams("degree must be positive")
    for c0 in (1, 2, 3):
        for rest in itertools.product(range(4), repeat=d - 1):
            cand = (c0,) + rest + (1,)
            if ((d == 1 or not _has_gf4_root(cand))
                    and is_irreducible(gf4.poly(cand))):
                return np.frombuffer(bytes(cand), np.uint8)  # read-only
    raise InvalidParams(f"no irreducible of degree {d}")  # unreachable


# --- context ---------------------------------------------------------------

@dataclass(frozen=True)
class ExtFieldContext:
    """Everything needed to evaluate sums of beta powers for one N.

    gf4's packed elements modulo the uint8 digits of modulus, X^d being
    x_to_d; beta = beta_base^((4^d - 1)/N) (see build_extension), and
    beta_powers[r] = beta^r for 0 <= r < N backs every character sum.
    exp_table is always None: no generator's power table is built, and the
    field stays only because perfbench/tracer.py reads it.
    """

    N: int
    d: int
    modulus: np.ndarray = field(repr=False)
    x_to_d: int = field(repr=False)
    beta_base: int
    beta: int
    beta_powers: np.ndarray = field(repr=False)
    exp_table: object = field(repr=False)

    @property
    def group_order(self):
        return 4**self.d - 1

    def pow(self, x, e):
        return ext_pow(x, e, self.d, self.x_to_d)


def _power_table(x, size, d, x_to_d):
    # x^r for 0 <= r < size by the base-4 digits of r, x^(4r + j) being
    # x^j (x^r)^4: a round quadruples the prefix by x -> x^4, then j times x
    lo = _x_multiples(x, d, d, x_to_d)
    by_x = _byte_tables(np.concatenate([lo, _scale(lo, 2, d)]))
    frobenius = _linear_maps(d, x_to_d)[1]
    out = np.ones(1, dtype=np.uint32)
    while len(out) < size:
        cols = [_vec_linear(out[:-(-size // 4)], frobenius)]
        for _ in range(3):
            cols.append(_vec_linear(cols[-1], by_x))
        out = np.stack(cols, axis=1).ravel()[:size]
    return out


def build_extension(N):
    """Deterministic F_{4^d} context for N = p^m q^n.

    Raises CapExceeded when N > VERIFY_N_CAP or d > DEFAULT_DEGREE_CAP,
    and InvalidParams when N is not a product of exactly two odd prime
    powers.
    """
    if N < 3:
        raise InvalidParams("N must be an odd composite p^m q^n")
    if N > VERIFY_N_CAP:
        raise CapExceeded(
            f"N = {N} beyond the verification cap {VERIFY_N_CAP}")
    fac = factorize(N)
    if len(fac) != 2 or 2 in fac:
        raise InvalidParams("N must be p^m q^n for distinct odd primes")
    p, q = fac
    d = mult_order(4, N)
    if d > DEFAULT_DEGREE_CAP:
        raise CapExceeded(
            f"extension degree {d} exceeds the cap {DEFAULT_DEGREE_CAP}")

    modulus = least_irreducible(d)
    x_to_d = gf4.pack(*gf4.to_planes(modulus[:d]), d)
    # c^((4^d - 1)/N) has order N unless its N/p or N/q power is 1. c runs
    # from x on, digits compared from the top, not in packed order, which
    # starts with all of F_{2^d} when the modulus is over GF(2)
    for top_first in itertools.islice(itertools.product(range(4), repeat=d),
                                      4, None):
        beta_base = gf4.pack(*gf4.to_planes(top_first[::-1]), d)
        beta = ext_pow(beta_base, (4**d - 1) // N, d, x_to_d)
        if all(ext_pow(beta, N // r, d, x_to_d) != 1 for r in (p, q)):
            break
    else:
        raise LemmaViolation("no primitive N-th root of unity", N=N, d=d)

    beta_powers = _power_table(beta, N, d, x_to_d)
    closing = gf4.field_mul(int(beta_powers[-1]), beta, d, x_to_d)
    if closing != 1:
        raise LemmaViolation("beta^N does not close the cycle",
                             N=N, beta=beta, beta_to_N=closing)
    beta_powers.flags.writeable = False

    return ExtFieldContext(
        N=N, d=d, modulus=modulus, x_to_d=x_to_d,
        beta_base=beta_base, beta=beta, beta_powers=beta_powers,
        exp_table=None)


def _digits(x, d):
    # a packed element as a witness: its remainder's digits, constant first
    return gf4.poly_to_digits(gf4.from_planes(*gf4.unpack(int(x), d)))


def _require_matching(system, context):
    if system.constants.half_period != context.N:
        raise InvalidParams("context was built for a different N")


def _power_sums(beta_powers, sets, ks):
    """out[r, j] = XOR of beta_powers[ks[r] * t mod N] over t in sets[j].

    The whole uint32 table at once: rows go in blocks of about
    _BLOCK_ELEMENTS gathered elements, each block one outer product and
    reduction mod N, one gather, and one xor-reduceat over the
    concatenated sets. An empty set gives a zero column.
    """
    N = len(beta_powers)
    dtype = np.int32 if (N - 1)**2 < 2**31 else np.int64
    ks = (np.asarray(ks, dtype=np.int64) % N).astype(dtype)
    out = np.zeros((len(ks), len(sets)), dtype=np.uint32)
    cols = [j for j, s in enumerate(sets) if len(s)]
    if not cols:
        return out
    flat = np.concatenate([np.asarray(sets[j], dtype=np.int64) % N
                           for j in cols]).astype(dtype)
    starts = np.cumsum([0] + [len(sets[j]) for j in cols[:-1]])
    step = max(1, _BLOCK_ELEMENTS // flat.size)
    for lo in range(0, len(ks), step):
        idx = np.multiply.outer(ks[lo:lo + step], flat)
        # idx % N: numpy floor-divides by a scalar about twice as fast
        idx -= idx // N * N
        out[lo:lo + step, cols] = np.bitwise_xor.reduceat(
            np.take(beta_powers, idx), starts, axis=1)
    return out


def _orbit_sums(context, sets):
    """_power_sums over k = 1..N-1, one gather per Frobenius orbit.

    The XOR of beta^(4kt) over a set is the XOR of beta^(kt), raised to
    the 4th power, so row 4k is the Frobenius image of row k. Only the
    least k of each orbit of k -> 4k mod N is gathered; the orbit is then
    walked from it, one Frobenius step per row, until it closes (after d
    steps or fewer, when k shares a factor with N).
    """
    N, d = context.N, context.d
    ks = np.arange(1, N, dtype=np.int32 if 4 * N < 2**31 else np.int64)
    least = np.ones(len(ks), dtype=bool)
    image = ks
    for _ in range(d - 1):
        image = image * 4 % N
        least &= ks <= image
    start = ks[least]
    sums = _power_sums(context.beta_powers, sets, start)
    out = np.empty((len(ks), len(sets)), dtype=np.uint32)
    out[start - 1] = sums
    frobenius = _linear_maps(d, context.x_to_d)[1]
    row = start
    for _ in range(d - 1):
        row = row * 4 % N
        walking = row != start
        row, start = row[walking], start[walking]
        sums = _vec_linear(sums[walking], frobenius)
        out[row - 1] = sums
    return out


def char_sum(system, context, class_id, k):
    """Sum of beta^{k t} over the H-set of class_id, as a packed element."""
    _require_matching(system, context)
    elems = h_set(system, class_id)
    return int(_power_sums(context.beta_powers, [elems],
                           [k % context.N])[0, 0])


def _cells(system):
    # the doubled-modulus H-sets: the char-sum table's columns, in order
    c = system.constants
    return [cid for cid in all_class_ids(c.m, c.n)
            if cid.shape in DOUBLED_SHAPES]


def measure_spectrum(system, context, mapping, char_sums=None):
    """S(beta^k) for 0 <= k < N, exactly, as packed elements.

    Folds the two half-periods (beta^{t+N} = beta^t). The folded sequence
    is one value v on each doubled-modulus H-set mod N, checked at every
    position (else LemmaViolation names the cell and its least t off v),
    so for k >= 1 S(beta^k) is the XOR of v times the cell's column of the
    char-sum table, plus folded[0] beta_powers[0], and S(beta^0) is the
    XOR of the folded symbols times beta_powers[0]. The table is that of
    char_sums (verify_char_sum_tables' report) or is gathered here. Where
    beta^0 lies in GF(4), the result is, bit for bit, the orbit gather over
    the three value supports. Degenerate mappings are allowed.
    """
    _require_matching(system, context)
    seq = build_sequence(system, mapping, allow_degenerate=True)
    N, d = context.N, context.d
    folded = seq.symbols[:N] ^ seq.symbols[N:]
    cells = _cells(system)
    sets = [h_set(system, cid) % N for cid in cells]
    table = char_sums.table if char_sums else _orbit_sums(context, sets)
    values = np.array([folded[ts.min()] for ts in sets])
    for cid, ts, v in zip(cells, sets, values):
        off = ts[folded[ts] != v]
        if off.size:
            raise LemmaViolation("folded sequence not constant on a cell",
                                 cell=cid, t=int(off.min()))
    s1, s2, s3 = (np.bitwise_xor.reduce(table[:, values == v], axis=1)
                  for v in (1, 2, 3))
    one = int(context.beta_powers[0])
    # 1*s1 + alpha*s2 + (alpha+1)*s3 = s1 + s3 + alpha*(s2 + s3)
    rest = s1 ^ s3 ^ _scale(s2 ^ s3, 2, d) ^ _scale(one, int(folded[0]), d)
    return np.insert(rest, 0,
                     _scale(one, int(np.bitwise_xor.reduce(folded)), d))


@dataclass(frozen=True)
class CaseReport:
    """Outcome of checking S(beta^k) against the predicted regime values."""

    s_at_1: int
    value_generic: int
    value_p_saturated: int
    value_q_saturated: int
    checked: int
    all_values_nonzero: bool
    max_complexity_predicted: bool

    def to_json_dict(self):
        return asdict(self)


def verify_case_table(system, context, mapping, char_sums=None):
    """Measure every S(beta^k) and compare with the closed-form prediction.

    The prediction is regime-based: S(1) = e, and for k = p^a q^b l the value
    depends only on which of p^m, q^n divide k (see
    sequence.spectrum_profile). Raises CaseViolation at the first k whose
    measured value differs, with both values as the digits of their remainder
    polynomials (gf4.poly_to_digits: alpha is 2, X is 01); the report also
    says whether every value is nonzero, which is exactly the condition for LC
    to reach the full period. char_sums goes on to measure_spectrum.
    """
    bad = validate_mapping(system.constants.p, mapping)
    if bad:
        raise InvalidMapping(bad)
    prof = spectrum_profile(system, mapping)
    spectrum = measure_spectrum(system, context, mapping, char_sums)
    c = system.constants
    ks = np.arange(context.N)
    expected = np.where(ks % c.p**c.m == 0, prof.value_p_saturated,
                        np.where(ks % c.q**c.n == 0, prof.value_q_saturated,
                                 prof.value_generic))
    expected[0] = mapping.e
    expected = gf4.pack_scalar(expected, context.d)
    bad = np.nonzero(spectrum != expected)[0]
    if bad.size:
        k = int(bad[0])
        raise CaseViolation(k, _digits(expected[k], context.d),
                            _digits(spectrum[k], context.d))
    return CaseReport(mapping.e, prof.value_generic, prof.value_p_saturated,
                      prof.value_q_saturated, checked=context.N,
                      all_values_nonzero=prof.attains_max,
                      max_complexity_predicted=prof.attains_max)


@dataclass(frozen=True)
class CharSumReport:
    """Tally of the exhaustive character-sum table verification; table,
    k = 1..N-1 by doubled-modulus H-set, feeds measure_spectrum only."""

    k_count: int
    cells_checked: int
    table: np.ndarray = field(repr=False, compare=False)

    def to_json_dict(self):
        return {"k_count": self.k_count, "cells_checked": self.cells_checked}


def _valuations(ks, prime, N):
    # exponent of prime in each k, for 1 <= k < N
    v = np.zeros_like(ks)
    power = prime
    while power < N:
        v += ks % power == 0
        power *= prime
    return v


_CHAR_SUM_DETAIL = {
    "2pq": "mixed-modulus character sum off its closed form",
    "2p": "p-power character sum off its closed form",
    "2q": "q-power character sum off its closed form",
}


def _boundary_roots(system, context, a, b, l):
    """Root sums of the boundary cells for k = p^a q^b l: out[shape][r, h].

    The 2pq, 2p and 2q cells sum zeta^(u t) over the base class D_h mod
    M = pq, p, q, with zeta of order M and u = l, q^b l, p^a l. D_0 has
    index 2 in the units mod M and D_1 is its coset, so a unit u maps D_h
    onto D_(h xor c(u)), c(u) being the class of u: the sum is the
    Gaussian period eta_(h xor c(u)), and a u in neither class raises
    LemmaViolation. The periods come from a power table of zeta_pq
    computed afresh from beta, independent of beta_powers, which the
    measured side reads.
    """
    p, q = system.constants.p, system.constants.q
    zeta_powers = _power_table(context.pow(context.beta, context.N // (p * q)),
                               p * q, context.d, context.x_to_d)
    out = {}
    for shape, i, j, u in (("pq", 1, 1, l), ("p", 1, 0, q**b * l),
                           ("q", 0, 1, p**a * l)):
        M = p**i * q**j
        base = [system.classes[ClassId(shape, i, j, h)] for h in (0, 1)]
        eta = np.array([np.bitwise_xor.reduce(zeta_powers[cls * (p * q // M)])
                        for cls in base], dtype=np.uint32)
        side = np.full(M, -1, dtype=np.int8)
        for h, cls in enumerate(base):
            side[cls] = h
        c = side[u % M]
        if (c < 0).any():
            raise LemmaViolation("multiplier outside both base classes",
                                 shape=shape, u=int(u[np.argmax(c < 0)]))
        out["2" + shape] = eta[np.bitwise_xor.outer(c, (0, 1))]
    return out


def verify_char_sum_tables(system, context):
    """Check every character sum over every doubled-modulus H-set.

    For each k = p^a q^b l in 1..N-1 and each cell (shape, i, j, h) the
    measured sum must match its closed form: an integer constant reduced
    mod 2 when the cell's exponents are dominated by (a, b), a root-of-
    unity sum over the base class on the boundary, and 0 beyond it. Both
    the measured and the expected values are whole (k, cell) tables. The
    measured one comes from _orbit_sums, whose row k = 1 reads every
    nonzero entry of beta_powers once; the root sums come from
    _boundary_roots, which never reads beta_powers, so a corrupted entry
    cannot shift both sides alike.
    Raises LemmaViolation with the witness (k, cell) on the first
    mismatch, k ascending, then the 2pq cells (i, j, h), the 2p cells
    (i, h) and the 2q cells (j, h); the expected and measured values are
    remainder digits, as in verify_case_table.
    """
    _require_matching(system, context)
    p, q, N = system.constants.p, system.constants.q, context.N

    ks = np.arange(1, N, dtype=np.int64)
    a = _valuations(ks, p, N)
    b = _valuations(ks, q, N)
    roots = _boundary_roots(system, context, a, b, ks // (p**a * q**b))
    cells = _cells(system)
    measured = _orbit_sums(context, [h_set(system, cid) for cid in cells])

    columns = []
    for cid in cells:
        i, j, root = cid.i, cid.j, roots[cid.shape][:, cid.h]
        if cid.shape == "2pq":
            full = ((p - 1) * (q - 1) * p**(i - 1) * q**(j - 1) // 2) & 1
            edge = np.where(j <= b, ((q - 1) // 2) & 1,
                            np.where(j == b + 1, root, 0))
            col = np.where((i <= a) & (j <= b), full,
                           np.where(i == a + 1, edge, 0))
        elif cid.shape == "2p":
            col = np.where(i <= a, (p**(i - 1) * (p - 1) // 2) & 1,
                           np.where(i == a + 1, root, 0))
        else:
            col = np.where(j <= b, (q**(j - 1) * (q - 1) // 2) & 1,
                           np.where(j == b + 1, root, 0))
        columns.append(col)
    expected = np.stack(columns, axis=1)

    bad = measured != expected
    if bad.any():
        # row-major argmax: the first mismatch in (k, cell) order
        r, col = divmod(int(np.argmax(bad)), len(cells))
        raise LemmaViolation(
            _CHAR_SUM_DETAIL[cells[col].shape], k=r + 1, cell=cells[col],
            expected=_digits(expected[r, col], context.d),
            measured=_digits(measured[r, col], context.d))
    return CharSumReport(k_count=N - 1, cells_checked=bad.size,
                         table=measured)
