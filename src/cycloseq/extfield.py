"""The extension field F_{4^d} and numerical checks of the character sums.

d is the multiplicative order of 4 modulo N = p^m q^n, so F_{4^d} contains
a primitive N-th root of unity beta. Elements are gf4's packed ints
(uint32 for d <= 12, addition a plain XOR), multiplied by gf4.field_mul.
One field is built per degree: the least monic irreducible in
lexicographic coefficient order, searched on planes (a candidate with a
common factor with x^3 - 1, so a root in GF(4)*, skipped after one gcd;
Rabin's test deciding the rest). Per degree, _frobenius holds x -> x^2 as
byte tables and the images of the basis bits under x -> x^4. These maps
and times a fixed element are GF(2)-linear, one 256-entry lookup per
input byte (_vec_linear on arrays), so ext_pow squares by table. beta is
the first c^((4^d - 1)/N) of order N, c running from x on, digits
compared from the top, so no group generator is searched for. The module
tabulates beta^r for 0 <= r < N by the base-4 digits of r, not by
doubling: a round is one gather of y -> beta^j y^4, j < 4. Every sum it
then measures is an XOR of beta^(k t mod N) over an index set T, and one
kernel, _power_sums, gathers a table of them in blocks of about
limits._BLOCK_ELEMENTS, so its temporary memory peaks at 274 KiB on the
verify-grid systems instead of growing as N^2. A unit u with u T = T mod
N makes the row of u k the row of k, by reindexing t -> u t, whatever
the table holds: _orbit_sums certifies the multipliers y^2 and g^2 y^-2,
which generate the units that are squares mod p and mod q, on the sets
as given, and gathers only the least k of each orbit they make; as each
multiplier is a square mod p and mod q, each orbit lies inside one cell
of Z_N, and on the H-sets each nonzero cell is one orbit. From there on
verify works one row per orbit and never a row per k. The character sums
over the doubled-modulus H-sets are one such table, a row per leader and
a column per H-set, compared with their closed forms at each leader's
cell: a mismatch is constant on its orbit, so the first one names the
least failing k. The folded sequence s_t + s_(t+N) is constant on each
of those H-sets, so the spectrum S(beta^k) is a GF(4) combination of the
table's columns: measure_spectrum reads only that table, once it has
passed its check, and gathers nothing of its own, one value per orbit.
Its columns are the doubled-modulus labels, system.labels[2::2] (each
family's coset 0 and 1, in label order), and their H-sets the positions
that carry each label, mod N. The expected side is the closed form of
the cells module, a row per cell taken at each leader by its cell; the
Gaussian periods of p and q are read off the power table of
w = beta^(N/pq). _power_table holds the last table it made, one entry,
read-only and keyed by its arguments: at N = pq, w is beta, so the
periods get the very table build_extension just made. The key is the
context's beta, so the periods never read a context's beta_powers: one
whose beta_powers were replaced still gets its beta's own table, and one
whose beta changed gets a table of its own.

A process builds each field once: build_extension holds its context per
N, the last limits.HELD_FIELDS by use, and the context is read-only (a
frozen dataclass, its modulus and beta_powers not writeable). verify
checks each system once, by checked_char_sums: the paint against its
cells, then the table. The report is read-only (CharSumReport: at most
20 rows, their leaders, and an int8 column map of Z_N in place of the
H-sets, its arrays not writeable): each system keeps its own
(CyclotomicSystem.char_sums), read back for every mapping.
"""

import functools
import itertools
from dataclasses import asdict, dataclass, field

import numpy as np

from . import gf4, limits
from .cells import _qr_sides, cell_char_sums, cell_index, cells, predict_lc
from .cyclotomy import check_structural_lemmas, h_set
from .errors import (CaseViolation, InvalidParams, LemmaViolation,
                     MethodDisagreement)
from .numtheory import factorize, mult_order
from .sequence import build_sequence, spectrum_profile


# --- packed-element arithmetic -------------------------------------------

def ext_pow(x, e, d, x_to_d):
    """x^e in GF(4)[X]/(X^d + x_to_d), e >= 0: the bits of e from the top,
    squaring by table (_frobenius) and one field_mul per further set bit."""
    if e < 0:
        raise InvalidParams("negative exponent")
    square = _frobenius(d, x_to_d)[0]
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
    # y X^i, 0 <= i < count: times X is one shift, the digit that leaves
    # degree d - 1 (bits d and 2d once shifted) folded back in as that
    # multiple of X^d = x_to_d; at d = 1 callers take count 1, no step
    folds, keep = [_scale(x_to_d, c, d) for c in range(4)], 4**d - 1 ^ 1 << d
    out = [y]
    for _ in range(count - 1):
        y <<= 1
        y = y & keep ^ folds[y >> d & 1 | y >> 2 * d - 1 & 2]
        out.append(y)
    return np.array(out, dtype=np.uint32)


@functools.lru_cache(maxsize=limits.DEFAULT_DEGREE_CAP)
def _frobenius(d, x_to_d):
    """The Frobenius maps modulo X^d + x_to_d that the module reads: the
    byte tables of y -> y^2 as tuples, for ext_pow, and the images of the
    2d single bits under y -> y^4, one read-only array that starts every
    _power_table. Squaring is GF(2)-linear, taking X^i to X^(2i) and
    alpha X^i to (alpha + 1) X^(2i); y^4 squares each bit's square."""
    powers = _x_multiples(1, 2 * d - 1, d, x_to_d)[::2]
    squares = np.concatenate([powers, _scale(powers, 3, d)])
    square = _byte_tables(squares)
    fourth = _vec_linear(squares, square)
    fourth.flags.writeable = False
    return tuple(map(tuple, square.tolist())), fourth


# --- modulus selection -----------------------------------------------------

def is_irreducible(hi, lo):
    """Rabin's test over GF(4) on a polynomial's planes, squaring with
    field_mul modulo the polynomial itself."""
    d = max(hi.bit_length(), lo.bit_length()) - 1
    if d <= 1 or not (hi | lo) & 1:  # a constant, a linear factor, or x | f
        return d == 1
    m1, m0 = gf4.monic_planes(hi, lo)
    x_to_d = gf4.pack(m1, m0 ^ 1 << d, d)  # f minus its leading X^d
    x = gf4.pack(0, 0b10, d)
    frob = [x]  # frob[k] = x^(4^k) mod f
    for _ in range(d):
        t = gf4.field_mul(frob[-1], frob[-1], d, x_to_d)
        frob.append(gf4.field_mul(t, t, d, x_to_d))
    # gcd(x^(4^(d/r)) - x, f) = 1 for every prime r | d
    return frob[d] == x and all(
        gf4.gcd_planes(*gf4.unpack(frob[d // r] ^ x, d), m1, m0) == (0, 1)
        for r in factorize(d))


def _has_gf4_root(hi, lo):
    # x^3 + 1 (0b1001) is the product of x - v over GF(4)*: a root there
    # is a common factor with it
    return gf4.gcd_planes(hi, lo, 0, 0b1001) != (0, 1)


@functools.lru_cache(maxsize=limits.DEFAULT_DEGREE_CAP)
def least_irreducible(d):
    """Least monic irreducible of degree d, coefficients compared from the
    constant term up, which starts at 1 (else x divides). From degree 2 on,
    a candidate with a root in GF(4) has a linear factor: no Rabin test.
    Searched once per degree, on each candidate's planes; each call returns
    the same read-only digit array."""
    if d < 1:
        raise InvalidParams("degree must be positive")
    for c0 in (1, 2, 3):
        for rest in itertools.product(range(4), repeat=d - 1):
            cand = (c0,) + rest + (1,)
            planes = gf4.to_planes(cand)
            if ((d == 1 or not _has_gf4_root(*planes))
                    and is_irreducible(*planes)):
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


@functools.lru_cache(maxsize=1)
def _power_table(x, size, d, x_to_d):
    """x^r for 0 <= r < size, one read-only array. The last table made is
    held, one entry keyed by the arguments: at N = pq, w = beta^(N/pq) is
    beta, so _gaussian_periods gets the table build_extension just made.

    By the base-4 digits of r, x^(4r + j) being x^j (x^r)^4: a round
    quadruples the prefix in one gather through the stacked byte tables
    of y -> x^j y^4, j = 0..3, columns interleaved."""
    lo = _x_multiples(x, d, d, x_to_d)
    by_x = _byte_tables(np.concatenate([lo, _scale(lo, 2, d)]))
    cols = [_frobenius(d, x_to_d)[1]]
    for _ in range(3):
        cols.append(_vec_linear(cols[-1], by_x))
    maps = _byte_tables(np.stack(cols, axis=1))
    out = np.ones(1, dtype=np.uint32)
    while len(out) < size:
        out = _vec_linear(out[:-(-size // 4)], maps).ravel()[:size]
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=limits.HELD_FIELDS, typed=True)
def build_extension(N):
    """Deterministic F_{4^d} context for N = p^m q^n, built once per N
    and held for the process, the last limits.HELD_FIELDS by use; each
    call returns the held context, read-only (frozen, its modulus and
    beta_powers not writeable).

    Raises CapExceeded, through limits.check_limit, when N or d exceeds
    its cap (VERIFY_N_CAP, DEFAULT_DEGREE_CAP), and InvalidParams when N is
    not a product of exactly two odd prime powers; a call that raises
    holds nothing, so it raises again at every call.
    """
    if N < 3:
        raise InvalidParams("N must be an odd composite p^m q^n")
    limits.check_limit("N =", N, limits.VERIFY_N_CAP, "the verification cap")
    fac = factorize(N)
    if len(fac) != 2 or 2 in fac:
        raise InvalidParams("N must be p^m q^n for distinct odd primes")
    p, q = fac
    d = mult_order(4, N)
    limits.check_limit("extension degree", d, limits.DEFAULT_DEGREE_CAP,
                       "the cap")

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

    return ExtFieldContext(
        N=N, d=d, modulus=modulus, x_to_d=x_to_d, beta=beta,
        beta_powers=beta_powers)


def _digits(x, d):
    # a packed element as a witness: its remainder's digits, constant first
    return gf4.poly_to_digits(gf4.from_planes(*gf4.unpack(int(x), d)))


def _power_sums(beta_powers, sets, ks):
    """out[r, j] = XOR of beta_powers[ks[r] * t mod N] over t in sets[j].

    The whole uint32 table at once: rows go in blocks of about
    limits._BLOCK_ELEMENTS gathered elements, each one outer product and
    reduction mod N, one gather, and one xor-reduceat over the
    concatenated sets. An empty set gives a zero column. Indices are
    int32: N <= VERIFY_N_CAP keeps every product k t below (N - 1)^2 < 2^31.
    Over the orbit leaders of the verify-grid systems it peaks at 274 KiB
    by tracemalloc, the four int32 and uint32 arrays of a block included.
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
    step = max(1, limits._BLOCK_ELEMENTS // flat.size)
    for lo in range(0, len(ks), step):
        idx = np.multiply.outer(ks[lo:lo + step], flat)
        # idx % N: numpy floor-divides by a scalar about twice as fast
        idx -= idx // N * N
        out[lo:lo + step, cols] = np.bitwise_xor.reduceat(
            np.take(beta_powers, idx), starts, axis=1)
    return out


def _orbit_sums(context, sets, constants):
    """The leaders, ascending, of the orbits of k = 1..N-1 under the
    multipliers that keep every set, their _power_sums rows, and col.

    col[t] names the one set that holds t mod N, -1 off every set, in the
    least signed integer type that holds the set count (int8 up to 128
    sets); it is the sets' column map only where they are disjoint and
    without repeats mod N. u1 = y^2 and u2 = g^2 y^-2 mod N generate U,
    the units that are squares mod p and mod q, and have orders phi(p^m)/2
    and phi(q^n)/2 when g and y are as the constants claim. A multiplier u
    is used only once u^order = 1 mod N, (u|p) = (u|q) = 1 by Euler's
    criterion, and col[u t mod N] = col[t] for every t, the sets disjoint
    and without repeats. Then t -> u t permutes each set, so the XOR of
    b[u k t] over a set is the XOR of b[k t] for any array b: row u k is
    row k by reindexing, whatever beta_powers holds. And u keeps v_p(k),
    v_q(k) and both Legendre bits, so each orbit lies inside one cell of
    Z_N (cyclotomy.cells). Pointer doubling, ceil(log2 order) rounds per
    multiplier (enough, as u^order = 1), takes each k to the least k of
    its orbit; only those leaders are gathered, and nothing is copied. On
    the doubled-modulus H-sets the orbits are the nonzero cells; a set
    list that refuses both multipliers has every k its own leader.
    """
    N, c = context.N, constants
    ks = np.arange(N, dtype=np.int64)
    flat = np.concatenate([np.asarray(s, dtype=np.int64) % N for s in sets])
    col = np.full(N, -1, dtype=np.min_scalar_type(-len(sets)))
    col[flat] = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
    disjoint = np.count_nonzero(col >= 0) == flat.size
    phi_p, phi_q = c.d_ij[c.m, 0], c.d_ij[0, c.n]
    least = ks
    # y^(phi(p^m) - 2) is y^-2 mod N while y = 1 mod q^n; the certificate
    # below vouches for whatever u comes out
    for u, order in ((c.y**2 % N, phi_p // 2),
                     (c.g**2 * pow(c.y, phi_p - 2, N) % N, phi_q // 2)):
        step = ks * u % N
        if not (disjoint and pow(u, order, N) == 1
                and all(pow(u, (r - 1) // 2, r) == 1 for r in (c.p, c.q))
                and np.array_equal(col[step], col)):
            continue
        # after r rounds least[k] is the least of the old least at k u^i,
        # i < 2^r, and step[k] is k u^(2^r) mod N
        for _ in range((order - 1).bit_length()):
            least, step = np.minimum(least, least[step]), step[step]
    leaders = np.flatnonzero(least == ks)[1:]
    return leaders, _power_sums(context.beta_powers, sets, leaders), col


def measure_spectrum(context, char_sums, seq):
    """S(beta^0), then S(beta^k) at each of char_sums.leaders, exactly, as
    packed elements: one value per orbit, read off the checked char-sum
    table of char_sums (verify_char_sum_tables' report).

    Folds the two half-periods of seq (beta^{t+N} = beta^t). The folded
    sequence must be one value v on each of the report's H-sets mod N, the
    value at the column's least position: one vectorized pass over the
    report's column map checks every position, and LemmaViolation names
    the first H-set in column order with a position off v, and its least
    such t. Then for k >= 1 S(beta^k) is the XOR of v times the H-set's
    column of the table, plus folded[0] beta_powers[0], and S(beta^0) is
    the XOR of the folded symbols times beta_powers[0]. Every row of the
    table stands for its orbit: S(beta^k) is its leader's value at every
    k of it. Where beta^0 lies in GF(2), the result is, bit for bit, the
    gather over the three value supports at those k. seq may come from a
    degenerate mapping.
    """
    N, d, table, col = context.N, context.d, char_sums.table, char_sums.col
    folded = seq.symbols[:N] ^ seq.symbols[N:]
    values = folded[char_sums.firsts]
    off = np.flatnonzero((col >= 0) & (folded != values[col]))
    if off.size:
        j = col[off].min()
        raise LemmaViolation("folded sequence not constant on a cell",
                             cell=char_sums.columns[j],
                             t=int(off[col[off] == j][0]))
    s1, s2, s3 = (np.bitwise_xor.reduce(table[:, values == v], axis=1)
                  for v in (1, 2, 3))
    one = int(context.beta_powers[0])
    out = np.empty(len(table) + 1, dtype=np.uint32)
    out[0] = _scale(one, int(np.bitwise_xor.reduce(folded)), d)
    # 1*s1 + alpha*s2 + (alpha+1)*s3 = s1 + s3 + alpha*(s2 + s3)
    out[1:] = s1 ^ s3 ^ _scale(s2 ^ s3, 2, d) ^ _scale(one, int(folded[0]), d)
    return out


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
    sequence.spectrum_profile), so it is constant on each cell of Z_N, and
    the measured value on each orbit of the report. Both are compared at
    k = 0 and at each of the report's leaders, one k per orbit, each the
    least k of its orbit; checked still counts all N values of k. Raises
    CaseViolation at the first k whose measured value differs, the least
    failing k, with both values as the digits of their remainder
    polynomials (gf4.poly_to_digits: alpha is 2, X is 01). The report says
    whether every measured value is nonzero and whether cells.predict_lc
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
    ks = np.concatenate(([0], char_sums.leaders))
    expected = np.where(ks % c.p**c.m == 0, prof.value_p_saturated,
                        np.where(ks % c.q**c.n == 0, prof.value_q_saturated,
                                 prof.value_generic))
    expected[0] = mapping.e
    expected = gf4.pack_scalar(expected, context.d)
    bad = np.nonzero(spectrum != expected)[0]
    if bad.size:
        r = bad[0]
        raise CaseViolation(int(ks[r]), _digits(expected[r], context.d),
                            _digits(spectrum[r], context.d))
    nonzero, lc = bool(spectrum.all()), predict_lc(c, mapping)
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
    """Tally of the exhaustive character-sum table verification, and what
    measure_spectrum reads: one row per orbit of _orbit_sums, not per k.

    table[r] is the row of k = leaders[r] (ascending, the least k of each
    orbit, one orbit per nonzero cell of Z_N), a column per doubled-modulus
    H-set in columns' order; every k of an orbit has its leader's row.
    firsts holds the least position of each H-set mod N, and col the H-set
    of each position of Z_N (int8, -1 off every H-set): together they
    stand for the H-sets, which the report does not keep. k_count and
    cells_checked count every k and every (k, H-set) pair, as the
    certificate covers them all. All of it is read-only (the arrays not
    writeable), as each system keeps its report (CyclotomicSystem.char_sums)
    and verify reads it for every mapping."""

    k_count: int
    cells_checked: int
    table: np.ndarray = field(repr=False, compare=False)
    columns: tuple = field(repr=False, compare=False)
    leaders: np.ndarray = field(repr=False, compare=False)
    firsts: np.ndarray = field(repr=False, compare=False)
    col: np.ndarray = field(repr=False, compare=False)

    def to_json_dict(self):
        return {"k_count": self.k_count, "cells_checked": self.cells_checked}


def _gaussian_periods(context, p, q):
    """(eta_0, eta_1) of p and of q: zeta_r = beta^(N/r) summed over the
    squares and the non-squares mod r. Both zetas are powers of
    w = beta^(N/pq), zeta_p^x = w^(qx) and zeta_q^x = w^(px), read from
    _power_table(w, pq, d, x_to_d). At N = pq, w is beta and that call
    returns the table build_extension made and _power_table holds; it is
    keyed by beta, never read from the context's beta_powers, so a
    corrupted beta_powers cannot reach the periods. LemmaViolation unless
    each lies in GF(4), each plane 0 or 1."""
    # one table, not one per prime: each table pays its byte-table setup
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

    For each k in 1..N-1 and each H-set (shape, i, j, h) the measured sum
    must match its closed form, cells.cell_char_sums at k's cell. Both
    sides are one row per orbit of _orbit_sums. The measured one is the
    gathered rows of the leaders, once y^2 and g^2 y^-2 pass their
    certificate on these sets (a paint that fails it has every k its own
    leader); t -> u t permutes each set, so every k of an orbit has its
    leader's row on any context, and the orbit lies inside one cell. The
    expected one takes each leader's cell by cell_index, its periods from
    _gaussian_periods, which never reads beta_powers. A mismatch is thus
    constant on its orbit, and each leader is the least k of its orbit, so
    comparing the leaders' rows checks every (k, H-set) pair and finds the
    least failing k. Row k = 1 reads beta_powers[1:] once, so a corrupted
    entry cannot shift both sides alike. Raises LemmaViolation with the
    witness k and cell, the H-set, on the first mismatch, k ascending, then
    the 2pq H-sets (i, j, h), the 2p H-sets (i, h) and the 2q H-sets
    (j, h); the expected and measured values are remainder digits, as in
    verify_case_table. The report (CharSumReport) keeps the measured rows,
    their leaders, and the H-sets as a column map.
    """
    _check_same_n(system, context)
    c, N = system.constants, context.N
    periods = _gaussian_periods(context, c.p, c.q)
    params = c.p, c.q, c.m, c.n
    rows = np.array([cell_char_sums(*params, key, periods)
                     for key, _ in cells(*params)], dtype=np.uint32)
    columns = system.labels[2::2]
    sets = [h_set(system, cid) % N for cid in columns]
    leaders, measured, col = _orbit_sums(context, sets, c)
    expected = rows[cell_index(*params)[leaders]]

    bad = measured != expected
    if bad.any():
        # row-major argmax: the first mismatch in (leader, column) order
        r, j = divmod(int(np.argmax(bad)), len(columns))
        raise LemmaViolation(
            _CHAR_SUM_DETAIL[columns[j].shape], k=int(leaders[r]),
            cell=columns[j], expected=_digits(expected[r, j], context.d),
            measured=_digits(measured[r, j], context.d))
    firsts = np.array([s.min() for s in sets])
    for array in (measured, leaders, firsts, col):
        array.flags.writeable = False
    return CharSumReport(k_count=N - 1, cells_checked=(N - 1) * len(columns),
                         table=measured, columns=columns, leaders=leaders,
                         firsts=firsts, col=col)


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
