"""The extension field F_{4^d} and numerical checks of the character sums.

d is the multiplicative order of 4 modulo N = p^m q^n, so F_{4^d} contains
a primitive N-th root of unity beta. Elements are packed integers, two
bits per GF4 coefficient (digit i at bits 2i, 2i+1), which keeps the whole
field in uint32 for d <= 12 and makes addition a plain XOR.

ext_mul, a Horner product on packed elements reduced through the packed
tail of any monic modulus, is the only multiplication; maps that are
GF(2)-linear on whole arrays (times a fixed element, x -> x^4) run on
_vec_linear from the images of the 2d bits. The module builds the context
deterministically (least monic irreducible modulus in lexicographic
coefficient order, found by Rabin's test squaring with ext_mul modulo each
candidate; first generator by packed-code order) and tabulates beta^r for
0 <= r < N. Every sum it then measures is an XOR of beta^(k t mod N) over
an index set T, and one kernel, _power_sums, gathers a table of them in
blocks of about _BLOCK_ELEMENTS elements, so temporary memory stays below
a megabyte instead of growing as N^2. x -> x^4 fixes GF(4), so the row of
4k is the Frobenius image of the row of k: _orbit_sums gathers only the
least k of each orbit of k -> 4k mod N (the cyclotomic cosets of the
Mattson-Solomon view) and walks the orbit from it. The character sums
over every H-set and the full spectrum S(beta^k) are each one such table,
compared cell by cell against their closed forms; a mismatch is reported
at the first k, in ascending order, that shows one. The boundary root sums
on the expected side are order-2 Gaussian periods, chosen by the class of
the multiplier, with no Frobenius map and no read of beta_powers.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import gf4
from .cyclotomy import DOUBLED_SHAPES, ClassId, all_class_ids, h_set
from .errors import (CapExceeded, CaseViolation, InvalidMapping,
                     InvalidParams, LemmaViolation, NotCoprime)
from .numtheory import factorize, mult_order
from .sequence import build_sequence, spectrum_profile, validate_mapping

DEFAULT_DEGREE_CAP = 12
# gathered elements per block of _power_sums: 256 KB of int32 indices plus
# 256 KB of gathered uint32, small enough to stay in cache
_BLOCK_ELEMENTS = 1 << 16


def ord_4_mod(n):
    """Multiplicative order of 4 modulo n; n must be odd (coprime to 4)."""
    if n < 1:
        raise InvalidParams("modulus must be positive")
    if n == 1:
        return 1
    if n % 2 == 0:
        raise NotCoprime("4 shares a factor with an even modulus")
    return mult_order(4, n)


# --- packed-element arithmetic -------------------------------------------

def _lomask(d):
    # binary 01 repeated d times: mask of all low coefficient bits
    return ((1 << (2 * d)) - 1) // 3


def _mul_alpha(x, lomask):
    """Multiply every GF4 digit of x by alpha, digitwise; works on arrays."""
    hi = (x >> 1) & lomask
    lo = x & lomask
    return ((hi ^ lo) << 1) | hi


def poly_to_packed(poly):
    return sum(int(c) << (2 * i) for i, c in enumerate(poly))


def packed_to_poly(x, d):
    return gf4.poly_trim(np.array([(x >> (2 * i)) & 3 for i in range(d)],
                                  dtype=np.uint8))


def ext_mul(x, y, d, tail, lomask):
    """Product of two packed elements modulo the packed tail of the modulus.

    Horner over the digits of y; each degree overflow folds back through
    x^d = tail.
    """
    full = (1 << (2 * d)) - 1
    topshift = 2 * (d - 1)
    ta = _mul_alpha(tail, lomask)
    tails = (0, tail, ta, tail ^ ta)
    acc = 0
    for pos in range(d - 1, -1, -1):
        top = (acc >> topshift) & 3
        acc = ((acc << 2) & full) ^ tails[top]
        dig = (y >> (2 * pos)) & 3
        if dig == 1:
            acc ^= x
        elif dig == 2:
            acc ^= _mul_alpha(x, lomask)
        elif dig == 3:
            acc ^= x ^ _mul_alpha(x, lomask)
    return acc


def ext_pow(x, e, d, tail, lomask):
    """x^e by square and multiply; e >= 0."""
    if e < 0:
        raise InvalidParams("negative exponent")
    out = 1
    base = x
    while e:
        if e & 1:
            out = ext_mul(out, base, d, tail, lomask)
        base = ext_mul(base, base, d, tail, lomask)
        e >>= 1
    return out


def _vec_linear(arr, images):
    # A GF(2)-linear map on a uint32 array of packed elements, given the
    # images of the single bits: the XOR of the images of the set bits.
    acc = np.zeros_like(arr)
    for bit, image in enumerate(images):
        acc ^= (arr >> bit & 1) * image
    return acc


# --- modulus selection -----------------------------------------------------

def is_irreducible(poly):
    """Rabin's test over GF(4), squaring with ext_mul modulo poly itself."""
    d = gf4.poly_deg(poly)
    if d <= 0:
        return False
    if d == 1:
        return True
    if poly[0] == 0:
        return False
    poly = gf4.poly_monic(poly)
    tail = poly_to_packed(poly[:d])
    lomask = _lomask(d)
    # frob[k] = x^(4^k) mod poly, packed; x itself is the packed code 4
    frob = [4]
    for _ in range(d):
        t = ext_mul(frob[-1], frob[-1], d, tail, lomask)
        frob.append(ext_mul(t, t, d, tail, lomask))
    if frob[d] != 4:
        return False
    for r in factorize(d):
        sub = frob[d // r] ^ 4
        if sub == 0:
            return False
        if gf4.poly_deg(gf4.poly_gcd(packed_to_poly(sub, d), poly)) != 0:
            return False
    return True


def least_irreducible(d):
    """Least monic irreducible of degree d, coefficients compared from the
    constant term up. A zero constant term divides by x, so the scan can
    start at constant term 1."""
    if d < 1:
        raise InvalidParams("degree must be positive")
    for c0 in (1, 2, 3):
        for rest in itertools.product(range(4), repeat=d - 1):
            cand = gf4.poly((c0,) + rest + (1,))
            if is_irreducible(cand):
                return cand
    raise InvalidParams(f"no irreducible of degree {d}")  # unreachable


# --- context ---------------------------------------------------------------

@dataclass(frozen=True)
class ExtFieldContext:
    """Everything needed to evaluate sums of beta powers for one N.

    Packed-integer elements throughout; beta_powers[r] is beta^r for
    0 <= r < N, the workhorse table behind every character sum. exp_table
    is always None: the generator's power table is no longer built, and
    the field stays only because the benchmark tracer (perfbench/tracer.py)
    still reads it when it sizes the context's tables.
    """

    N: int
    p: int
    q: int
    m: int
    n: int
    d: int
    modulus: np.ndarray = field(repr=False)
    tail: int = field(repr=False)
    lomask: int = field(repr=False)
    generator: int
    beta: int
    beta_powers: np.ndarray = field(repr=False)
    exp_table: object = field(repr=False)

    @property
    def group_order(self):
        return 4**self.d - 1

    def mul(self, x, y):
        return ext_mul(x, y, self.d, self.tail, self.lomask)

    def pow(self, x, e):
        return ext_pow(x, e, self.d, self.tail, self.lomask)


def _power_table(x, size, d, tail, lomask):
    # x^r for 0 <= r < size, doubling the filled prefix at each step: the
    # prefix times x^filled, a linear map that squares from step to step
    out = np.zeros(size, dtype=np.uint32)
    out[0] = 1
    images = np.array([ext_mul(1 << bit, x, d, tail, lomask)
                       for bit in range(2 * d)], dtype=np.uint32)
    filled = 1
    while filled < size:
        take = min(filled, size - filled)
        out[filled:filled + take] = _vec_linear(out[:take], images)
        filled += take
        images = _vec_linear(images, images)
    return out


def build_extension(N, max_degree=DEFAULT_DEGREE_CAP):
    """Deterministic F_{4^d} context for N = p^m q^n.

    Raises CapExceeded when the required degree exceeds max_degree and
    InvalidParams when N is not a product of exactly two odd prime powers.
    """
    if N < 3:
        raise InvalidParams("N must be an odd composite p^m q^n")
    fac = factorize(N)
    if len(fac) != 2 or 2 in fac:
        raise InvalidParams("N must be p^m q^n for distinct odd primes")
    (p, m), (q, n) = sorted(fac.items())
    d = ord_4_mod(N)
    if d > max_degree:
        raise CapExceeded(f"extension degree {d} exceeds the cap {max_degree}")

    modulus = least_irreducible(d)
    tail = poly_to_packed(modulus[:d])
    lomask = _lomask(d)
    group = 4**d - 1
    if group % N:
        raise LemmaViolation("N does not divide 4^d - 1", N=N, d=d)
    group_primes = list(factorize(group))
    generator = None
    for cand in range(2, 4**d):
        if all(ext_pow(cand, group // r, d, tail, lomask) != 1
               for r in group_primes):
            generator = cand
            break
    if generator is None:
        raise LemmaViolation("no generator of the multiplicative group", d=d)

    beta = ext_pow(generator, group // N, d, tail, lomask)
    beta_powers = _power_table(beta, N, d, tail, lomask)
    closing = ext_mul(int(beta_powers[-1]), beta, d, tail, lomask)
    if closing != 1:
        raise LemmaViolation("beta^N does not close the cycle",
                             N=N, beta=beta, beta_to_N=closing)
    beta_powers.flags.writeable = False

    return ExtFieldContext(
        N=N, p=p, q=q, m=m, n=n, d=d, modulus=modulus, tail=tail,
        lomask=lomask, generator=generator, beta=beta,
        beta_powers=beta_powers, exp_table=None)


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


def _frobenius_images(context):
    # x -> x^4 fixes GF(4), so it is GF(2)-linear: the bits of digit i,
    # X^i and alpha X^i, go to X^(4i) and alpha X^(4i) (X is packed as 4)
    step = context.pow(4, 4)
    images, power = [], 1
    for _ in range(context.d):
        images += [power, _mul_alpha(power, context.lomask)]
        power = context.mul(power, step)
    return np.array(images, dtype=np.uint32)


def _orbit_sums(context, sets, first_k):
    """_power_sums over k = first_k..N-1, one gather per Frobenius orbit.

    The XOR of beta^(4kt) over a set is the XOR of beta^(kt), raised to
    the 4th power, so row 4k is the Frobenius image of row k. Only the
    least k of each orbit of k -> 4k mod N is gathered; the orbit is then
    walked from it, one Frobenius step per row, until it closes (after d
    steps or fewer, when k shares a factor with N).
    """
    N, d = context.N, context.d
    ks = np.arange(first_k, N, dtype=np.int32 if 4 * N < 2**31 else np.int64)
    least = np.ones(len(ks), dtype=bool)
    image = ks
    for _ in range(d - 1):
        image = image * 4 % N
        least &= ks <= image
    start = ks[least]
    sums = _power_sums(context.beta_powers, sets, start)
    out = np.empty((len(ks), len(sets)), dtype=np.uint32)
    out[start - first_k] = sums
    frobenius = _frobenius_images(context)
    row = start
    for _ in range(d - 1):
        row = row * 4 % N
        walking = row != start
        row, start = row[walking], start[walking]
        sums = _vec_linear(sums[walking], frobenius)
        out[row - first_k] = sums
    return out


def char_sum(system, context, class_id, k):
    """Sum of beta^{k t} over the H-set of class_id, as a packed element."""
    _require_matching(system, context)
    elems = h_set(system, class_id)
    return int(_power_sums(context.beta_powers, [elems],
                           [k % context.N])[0, 0])


def measure_spectrum(system, context, mapping, allow_degenerate=True):
    """S(beta^k) for 0 <= k < N, exactly, as packed elements.

    Folds the two half-periods first (beta^{t+N} = beta^t), sums beta^{kt}
    over the support of each symbol value for every k in one table (one
    gather per Frobenius orbit of k, see _orbit_sums), then scales the
    three columns by their GF4 values. The default allows
    degenerate mappings since measuring those is the point of the
    falsification probes.
    """
    _require_matching(system, context)
    seq = build_sequence(system, mapping, allow_degenerate=allow_degenerate)
    N = context.N
    folded = seq.symbols[:N] ^ seq.symbols[N:]
    sums = _orbit_sums(context,
                       [np.nonzero(folded == v)[0] for v in (1, 2, 3)], 0)
    # 1*s1 + alpha*s2 + (alpha+1)*s3, with multiplication by alpha linear
    return sums[:, 0] ^ sums[:, 2] ^ _mul_alpha(sums[:, 1] ^ sums[:, 2],
                                                np.uint32(context.lomask))


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
        return {
            "s_at_1": self.s_at_1,
            "value_generic": self.value_generic,
            "value_p_saturated": self.value_p_saturated,
            "value_q_saturated": self.value_q_saturated,
            "checked": self.checked,
            "all_values_nonzero": self.all_values_nonzero,
            "max_complexity_predicted": self.max_complexity_predicted,
        }


def verify_case_table(system, context, mapping):
    """Measure every S(beta^k) and compare with the closed-form prediction.

    The prediction is regime-based: S(1) = e, and for k = p^a q^b l the
    value depends only on which of p^m, q^n divide k (see
    sequence.spectrum_profile). Raises CaseViolation at the first k whose
    measured value differs; the report also says whether every value is
    nonzero, which is exactly the condition for LC to reach the full
    period.
    """
    _require_matching(system, context)
    bad = validate_mapping(system.constants.p, mapping)
    if bad:
        raise InvalidMapping(bad)
    prof = spectrum_profile(system, mapping)
    spectrum = measure_spectrum(system, context, mapping,
                                allow_degenerate=True)
    if int(spectrum[0]) != mapping.e:
        raise CaseViolation(0, mapping.e, int(spectrum[0]))
    c = system.constants
    ks = np.arange(context.N)
    expected = np.where(ks % c.p**c.m == 0, prof.value_p_saturated,
                        np.where(ks % c.q**c.n == 0, prof.value_q_saturated,
                                 prof.value_generic))
    bad = np.nonzero(spectrum[1:] != expected[1:])[0]
    if bad.size:
        k = int(bad[0]) + 1
        raise CaseViolation(k, int(expected[k]), int(spectrum[k]))
    values = (mapping.e, prof.value_generic, prof.value_p_saturated,
              prof.value_q_saturated)
    nonzero = all(v != 0 for v in values)
    return CaseReport(
        s_at_1=mapping.e,
        value_generic=prof.value_generic,
        value_p_saturated=prof.value_p_saturated,
        value_q_saturated=prof.value_q_saturated,
        checked=context.N,
        all_values_nonzero=nonzero,
        max_complexity_predicted=nonzero)


@dataclass(frozen=True)
class CharSumReport:
    """Tally of the exhaustive character-sum table verification."""

    k_count: int
    cells_checked: int

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
                               p * q, context.d, context.tail, context.lomask)
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
    (i, h) and the 2q cells (j, h).
    """
    _require_matching(system, context)
    c = system.constants
    p, q, m, n = c.p, c.q, c.m, c.n
    N = context.N

    ks = np.arange(1, N, dtype=np.int64)
    a = _valuations(ks, p, N)
    b = _valuations(ks, q, N)
    roots = _boundary_roots(system, context, a, b, ks // (p**a * q**b))
    cells = [cid for cid in all_class_ids(m, n)
             if cid.shape in DOUBLED_SHAPES]
    measured = _orbit_sums(context, [h_set(system, cid) for cid in cells], 1)

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
            expected=int(expected[r, col]), measured=int(measured[r, col]))
    return CharSumReport(k_count=N - 1, cells_checked=bad.size)
