"""The extension field F_{4^d} and numerical checks of the character sums.

d is the multiplicative order of 4 modulo N = p^m q^n, so F_{4^d} contains
a primitive N-th root of unity beta. Elements are gf4's packed ints
(uint32 for d <= 12, addition a plain XOR), multiplied by gf4.field_mul.
One field is built per degree: the least monic irreducible in
lexicographic coefficient order (a candidate with a root in GF(4) skipped,
Rabin's test deciding the rest), with the byte tables of x -> x^(2^i) for
i = 0..2d, stacked in one array. These maps and times a fixed element are
GF(2)-linear, one 256-entry lookup per input byte (_vec_linear on arrays),
so ext_pow squares by table. beta is the first c^((4^d - 1)/N) of order N,
c running from x on, digits compared from the top, so no group generator
is searched for. The module tabulates beta^r for 0 <= r < N by the base-4
digits of r, not by doubling: a round is one gather of y -> beta^j y^4,
j < 4. Every sum it then measures is an XOR of beta^(k t mod N) over an
index set T, and one kernel, _power_sums, gathers a table of them in
blocks of about _BLOCK_ELEMENTS elements, so temporary memory stays below
a megabyte instead of growing as N^2. Squaring is a field automorphism, so
the row of 2k is the row of k squared: _orbit_sums gathers only the least
k of each orbit of k -> 2k mod N (the 2-cyclotomic cosets of the
Mattson-Solomon view) and fills the rows k 2^i of its orbit by one lookup
through the stacked tables. The character sums over the doubled-modulus
H-sets are one such table, a column per H-set, checked entry by entry
against their closed forms, a mismatch shown at its least k. The folded
sequence s_t + s_(t+N) is constant on each of those H-sets, so the
spectrum S(beta^k) is a GF(4) combination of the table's columns:
measure_spectrum reads only that table, once it has passed its check, and
gathers nothing of its own. Its columns are the doubled-modulus labels,
system.labels[2::2] (each family's coset 0 and 1, in label order), and
their H-sets the positions that carry each label, mod N. The expected
side is cyclotomy.cell_char_sums, a row per cell of cyclotomy.cells
gathered to each k by cyclotomy.cell_index; the Gaussian periods of p and
q are read off one power table of beta^(N/pq), not beta_powers.

A process builds each field once: build_extension holds its context per
N, the last HELD_FIELDS by use, and the context is read-only (a frozen
dataclass, its modulus and beta_powers not writeable). verify checks
each system once, by checked_char_sums, the one checked char-sum report:
the paint against its cells, then the table. The report is read-only,
its table and sets not writeable: each system keeps its own
(CyclotomicSystem.char_sums), read back for every mapping.
"""

import functools
import itertools
from dataclasses import asdict, dataclass, field

import numpy as np

from . import gf4
from . import analysis
from .cyclotomy import (_qr_sides, cell_char_sums, cell_index, cells,
                        check_structural_lemmas, h_set)
from .errors import (CaseViolation, InvalidParams, LemmaViolation,
                     MethodDisagreement)
from .numtheory import check_limit, factorize, mult_order
from .sequence import build_sequence, spectrum_profile

VERIFY_N_CAP = 5000
DEFAULT_DEGREE_CAP = 12
# fields build_extension holds, least recently used out first: the caps
# pass 52 values of N, so all of them fit, 0.15 MB of beta_powers in all
HELD_FIELDS = 64
# gathered elements per block of _power_sums: 256 KB of int32 indices plus
# 256 KB of gathered uint32, small enough to stay in cache
_BLOCK_ELEMENTS = 1 << 16


# --- packed-element arithmetic -------------------------------------------

def ext_pow(x, e, d, x_to_d):
    """x^e in GF(4)[X]/(X^d + x_to_d), e >= 0: the bits of e from the top,
    squaring by table (_linear_maps) and one field_mul per further set bit."""
    if e < 0:
        raise InvalidParams("negative exponent")
    square = _square_rows(d, x_to_d)
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
    # table per input byte: tables[c, b] = XOR of images[8c + i], i in b;
    # a row of images per bit gives a row of outputs per table entry
    chunks = np.zeros((-(-len(images) // 8), 8) + images.shape[1:],
                      dtype=np.uint32)
    chunks.reshape((-1,) + images.shape[1:])[:len(images)] = images
    tables = np.zeros((len(chunks), 256) + images.shape[1:], dtype=np.uint32)
    for i in range(8):
        tables[:, 1 << i:2 << i] = tables[:, :1 << i] ^ chunks[:, i, None]
    return tables


def _vec_linear(arr, tables):
    # the map of _byte_tables on a contiguous uint32 array: one lookup per
    # input byte, read through a little-endian byte view; stacked tables
    # give each input a row of outputs
    octets = arr.astype("<u4", copy=False).view(np.uint8)
    acc = 0
    for c, table in enumerate(tables):
        acc = acc ^ table[octets[..., c::4]]
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
    """Byte tables of y -> y^(2^i) modulo X^d + x_to_d for i = 0..2d,
    stacked on the last axis, one read-only array for _vec_linear: column
    1 squares, column 2 is the Frobenius y -> y^4, and column 2d, y^(4^d),
    is y again. Squaring is GF(2)-linear, taking X^i to X^(2i) and alpha
    X^i to (alpha + 1) X^(2i); each column's images are the previous
    column's, squared."""
    powers = _x_multiples(1, 2 * d - 1, d, x_to_d)[::2]
    square = _byte_tables(np.concatenate([powers, _scale(powers, 3, d)]))
    cols = [1 << np.arange(2 * d, dtype=np.uint32)]
    for _ in range(2 * d):
        cols.append(_vec_linear(cols[-1], square))
    maps = _byte_tables(np.stack(cols, axis=1))
    maps.flags.writeable = False
    return maps


@functools.lru_cache(maxsize=DEFAULT_DEGREE_CAP)
def _square_rows(d, x_to_d):
    # _linear_maps' squaring column as tuples, read one element at a time
    return tuple(map(tuple, _linear_maps(d, x_to_d)[..., 1].tolist()))


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
    x_to_d; beta has order N (see build_extension), and beta_powers[r] =
    beta^r for 0 <= r < N backs every character sum.
    exp_table is a class constant, None: no generator's power table is
    built, and the name stays only because perfbench/tracer.py reads it.
    """

    N: int
    d: int
    modulus: np.ndarray = field(repr=False)
    x_to_d: int = field(repr=False)
    beta: int
    beta_powers: np.ndarray = field(repr=False)
    exp_table = None

    def pow(self, x, e):
        return ext_pow(x, e, self.d, self.x_to_d)


def _power_table(x, size, d, x_to_d):
    # x^r for 0 <= r < size by the base-4 digits of r, x^(4r + j) being
    # x^j (x^r)^4: a round quadruples the prefix in one gather through the
    # stacked byte tables of y -> x^j y^4, j = 0..3, columns interleaved
    lo = _x_multiples(x, d, d, x_to_d)
    by_x = _byte_tables(np.concatenate([lo, _scale(lo, 2, d)]))
    cols = [_vec_linear(1 << np.arange(2 * d, dtype=np.uint32),
                        _linear_maps(d, x_to_d)[..., 2])]
    for _ in range(3):
        cols.append(_vec_linear(cols[-1], by_x))
    maps = _byte_tables(np.stack(cols, axis=1))
    out = np.ones(1, dtype=np.uint32)
    while len(out) < size:
        out = _vec_linear(out[:-(-size // 4)], maps).ravel()[:size]
    return out


@functools.lru_cache(maxsize=HELD_FIELDS, typed=True)
def build_extension(N):
    """Deterministic F_{4^d} context for N = p^m q^n, built once per N
    and held for the process, the last HELD_FIELDS of them by use; each
    call returns the held context, read-only (frozen, its modulus and
    beta_powers not writeable).

    Raises CapExceeded, through numtheory.check_limit, when
    N > VERIFY_N_CAP or d > DEFAULT_DEGREE_CAP, and InvalidParams when N is
    not a product of exactly two odd prime powers; a call that raises
    holds nothing, so it raises again at every call.
    """
    if N < 3:
        raise InvalidParams("N must be an odd composite p^m q^n")
    check_limit("N =", N, VERIFY_N_CAP, "the verification cap")
    fac = factorize(N)
    if len(fac) != 2 or 2 in fac:
        raise InvalidParams("N must be p^m q^n for distinct odd primes")
    p, q = fac
    d = mult_order(4, N)
    check_limit("extension degree", d, DEFAULT_DEGREE_CAP, "the cap")

    modulus = least_irreducible(d)
    x_to_d = gf4.pack(*gf4.to_planes(modulus[:d]), d)
    # c^((4^d - 1)/N) has order N unless its N/p or N/q power is 1. c runs
    # from x on, digits compared from the top, not in packed order, which
    # starts with all of F_{2^d} when the modulus is over GF(2)
    for top_first in itertools.islice(itertools.product(range(4), repeat=d),
                                      4, None):
        c = gf4.pack(*gf4.to_planes(top_first[::-1]), d)
        beta = ext_pow(c, (4**d - 1) // N, d, x_to_d)
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
        N=N, d=d, modulus=modulus, x_to_d=x_to_d, beta=beta,
        beta_powers=beta_powers)


def _digits(x, d):
    # a packed element as a witness: its remainder's digits, constant first
    return gf4.poly_to_digits(gf4.from_planes(*gf4.unpack(int(x), d)))


def _power_sums(beta_powers, sets, ks):
    """out[r, j] = XOR of beta_powers[ks[r] * t mod N] over t in sets[j].

    The whole uint32 table at once: rows go in blocks of about
    _BLOCK_ELEMENTS gathered elements, each block one outer product and
    reduction mod N, one gather, and one xor-reduceat over the
    concatenated sets. An empty set gives a zero column. Indices are
    int32: N <= VERIFY_N_CAP keeps every product k t below (N - 1)^2 < 2^31.
    """
    N = len(beta_powers)
    ks = (np.asarray(ks, dtype=np.int64) % N).astype(np.int32)
    out = np.zeros((len(ks), len(sets)), dtype=np.uint32)
    cols = [j for j, s in enumerate(sets) if len(s)]
    if not cols:
        return out
    flat = np.concatenate([np.asarray(sets[j], dtype=np.int64) % N
                           for j in cols]).astype(np.int32)
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
    """_power_sums over k = 1..N-1, one gather per orbit of k -> 2k.

    The XOR of beta^(2kt) over a set is the XOR of beta^(kt), squared, so
    row k 2^i is row k raised to the 2^i-th power. Only the least k of
    each orbit of k -> 2k mod N (a 2-cyclotomic coset) is gathered, and
    one lookup through _linear_maps fills the rows k 2^i mod N for
    i = 0..2d. As 2^(2d) = 4^d = 1 mod N, that covers the whole orbit; an
    orbit shorter than 2d writes some rows more than once, always with the
    same value.
    """
    N, d = context.N, context.d
    ks = np.arange(N, dtype=np.int64)
    # pointer doubling: after each round, least[k] is the least of
    # k 2^i mod N over the span i < span, and step[k] is k 2^span mod N
    least, step, span = ks, ks * 2 % N, 1
    while span < 2 * d:
        least, step = np.minimum(least, least[step]), step[step]
        span *= 2
    leaders = np.flatnonzero(least == ks)[1:]
    rows = np.multiply.outer(leaders, [pow(2, i, N) for i in range(2 * d + 1)])
    sums = _power_sums(context.beta_powers, sets, leaders)
    out = np.empty((N - 1, len(sets)), dtype=np.uint32)
    out[rows % N - 1] = _vec_linear(
        sums, _linear_maps(d, context.x_to_d)).swapaxes(1, 2)
    return out


def measure_spectrum(context, char_sums, seq):
    """S(beta^k) for 0 <= k < N, exactly, as packed elements, read off the
    checked char-sum table of char_sums (verify_char_sum_tables' report).

    Folds the two half-periods of seq (beta^{t+N} = beta^t). The folded
    sequence is one value v on each of the report's H-sets mod N, checked
    at every position (else LemmaViolation names the H-set and its least t
    off v), so for k >= 1 S(beta^k) is the XOR of v times the H-set's
    column of the table, plus folded[0] beta_powers[0], and S(beta^0) is
    the XOR of the folded symbols times beta_powers[0]. Where beta^0 lies
    in GF(2), the result is, bit for bit, the orbit gather over the three
    value supports. seq may come from a degenerate mapping.
    """
    N, d, table = context.N, context.d, char_sums.table
    folded = seq.symbols[:N] ^ seq.symbols[N:]
    values = np.array([folded[ts.min()] for ts in char_sums.sets])
    for cid, ts, v in zip(char_sums.columns, char_sums.sets, values):
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


def verify_case_table(system, context, mapping, char_sums=None, seq=None):
    """Measure every S(beta^k) and compare with the closed-form prediction.

    The prediction is regime-based: S(1) = e, and for k = p^a q^b l the value
    depends only on which of p^m, q^n divide k (see
    sequence.spectrum_profile). Raises CaseViolation at the first k whose
    measured value differs, with both values as the digits of their remainder
    polynomials (gf4.poly_to_digits: alpha is 2, X is 01). The report says
    whether every measured value is nonzero and whether analysis.predict_lc
    gives 2N, which must agree, as LC = 2N exactly when no S(beta^k)
    vanishes: MethodDisagreement, naming both verdicts, when they differ.
    The spectrum is read off a checked table only: char_sums, which verify
    checks once per system, or checked_char_sums run here, raising
    LemmaViolation before any spectrum is read. The sequence is seq, or
    built here by build_sequence, the gate on mappings. InvalidParams,
    naming both values, when system, context and char_sums disagree on N.
    """
    _check_same_n(system, context, char_sums)
    char_sums = char_sums or checked_char_sums(system, context)
    seq = seq or build_sequence(system, mapping)
    prof = spectrum_profile(system, mapping)
    spectrum = measure_spectrum(context, char_sums, seq)
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
    nonzero, lc = bool(spectrum.all()), analysis.predict_lc(c, mapping)
    if nonzero != (lc == c.period):
        raise MethodDisagreement(
            f"all_values_nonzero = {nonzero}, max_complexity_predicted = "
            f"{not nonzero}: predict_lc gives {lc} of period {c.period} "
            f"for mapping {mapping.as_tuple()}")
    return CaseReport(mapping.e, prof.value_generic, prof.value_p_saturated,
                      prof.value_q_saturated, checked=context.N,
                      all_values_nonzero=nonzero,
                      max_complexity_predicted=nonzero)


@dataclass(frozen=True)
class CharSumReport:
    """Tally of the exhaustive character-sum table verification. The
    table (k = 1..N-1 by H-set), its columns (the doubled-modulus H-sets,
    in order) and their sets mod N are what was checked; only
    measure_spectrum reads them. All of it is read-only (the table and
    each set not writeable), as each system keeps its report
    (CyclotomicSystem.char_sums) and verify reads it for every mapping."""

    k_count: int
    cells_checked: int
    table: np.ndarray = field(repr=False, compare=False)
    columns: tuple = field(repr=False, compare=False)
    sets: tuple = field(repr=False, compare=False)

    def to_json_dict(self):
        return {"k_count": self.k_count, "cells_checked": self.cells_checked}


def _gaussian_periods(context, p, q):
    """(eta_0, eta_1) of p and of q: zeta_r = beta^(N/r) summed over the
    squares and the non-squares mod r. Both zetas are powers of
    w = beta^(N/pq), zeta_p^x = w^(qx) and zeta_q^x = w^(px), read from
    one power table of w, not beta_powers; LemmaViolation unless each
    lies in GF(4), each plane 0 or 1."""
    ws = _power_table(context.pow(context.beta, context.N // (p * q)),
                      p * q, context.d, context.x_to_d)
    out = []
    for r, other in ((p, q), (q, p)):
        zetas, side = ws[other * np.arange(r)], _qr_sides(r)
        eta = [int(np.bitwise_xor.reduce(zetas[side == h])) for h in (0, 1)]
        for h, value in enumerate(eta):
            if max(gf4.unpack(value, context.d)) > 1:
                raise LemmaViolation("Gaussian period outside GF(4)",
                                     prime=r, h=h,
                                     eta=_digits(value, context.d))
        out.append(eta)
    return out


_CHAR_SUM_DETAIL = {
    "2pq": "mixed-modulus character sum off its closed form",
    "2p": "p-power character sum off its closed form",
    "2q": "q-power character sum off its closed form",
}


def _check_same_n(system, context, char_sums=None):
    N = context.N
    if system.half_period != N:
        raise InvalidParams(f"system has N = {system.half_period}, "
                            f"context N = {N}")
    if char_sums is not None and char_sums.k_count + 1 != N:
        raise InvalidParams(f"char sums were checked for N = "
                            f"{char_sums.k_count + 1}, context N = {N}")


def verify_char_sum_tables(system, context):
    """Check every character sum over every doubled-modulus H-set.

    For each k = p^a q^b l in 1..N-1 and each H-set (shape, i, j, h) the
    measured sum must match its closed form: 0 or 1 where (a, b) dominates
    the H-set's exponents, a Gaussian period of p or q on its boundary, and
    0 beyond. Both sides are whole (k, H-set) tables. The expected one is
    cyclotomy.cell_char_sums per cyclotomy.cells, gathered by cell_index,
    its periods from _gaussian_periods, which never reads beta_powers; the
    measured one is _orbit_sums, whose row k = 1 reads beta_powers[1:]
    once, so a corrupted entry cannot shift both sides alike. The report
    carries the measured table with its columns and their H-sets mod N.
    Raises LemmaViolation with the witness k and cell, the H-set, on the
    first mismatch, k ascending, then the 2pq H-sets (i, j, h), the 2p
    H-sets (i, h) and the 2q H-sets (j, h); the expected and measured
    values are remainder digits, as in verify_case_table.
    """
    _check_same_n(system, context)
    c, N = system.constants, context.N
    periods = _gaussian_periods(context, c.p, c.q)
    params = c.p, c.q, c.m, c.n
    rows = np.array([cell_char_sums(*params, key, periods)
                     for key, _ in cells(*params)], dtype=np.uint32)
    expected = rows[cell_index(c)[1:]]
    columns = system.labels[2::2]
    sets = tuple(h_set(system, cid) % N for cid in columns)
    measured = _orbit_sums(context, sets)
    for array in (measured, *sets):
        array.flags.writeable = False

    bad = measured != expected
    if bad.any():
        # row-major argmax: the first mismatch in (k, column) order
        r, col = divmod(int(np.argmax(bad)), len(columns))
        raise LemmaViolation(
            _CHAR_SUM_DETAIL[columns[col].shape], k=r + 1, cell=columns[col],
            expected=_digits(expected[r, col], context.d),
            measured=_digits(measured[r, col], context.d))
    return CharSumReport(k_count=N - 1, cells_checked=bad.size,
                         table=measured, columns=columns, sets=sets)


def checked_char_sums(system, context):
    """The one checked char-sum report, which each system keeps as its
    char_sums: check_structural_lemmas, raising its violation, then
    verify_char_sum_tables on context's field. verify checks no more of
    the partition: a paint equal to its cells' labels passes
    cyclotomy.check_residue_rules."""
    violations = check_structural_lemmas(system)
    if violations:
        raise violations[0]
    return verify_char_sum_tables(system, context)
