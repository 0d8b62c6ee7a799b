"""The extension field F_{4^d} and numerical checks of the character sums.

d is the multiplicative order of 4 modulo N = p^m q^n, so F_{4^d} contains
a primitive N-th root of unity beta. Elements are packed integers, two
bits per GF4 coefficient (digit i at bits 2i, 2i+1), which keeps the whole
field in uint32 for d <= 12 and makes addition a plain XOR.

The module builds the context deterministically (least monic irreducible
modulus in lexicographic coefficient order, first generator by packed-code
order) and tabulates beta^r for 0 <= r < N. Every sum it then measures has
the form XOR of beta^(k t mod N) over an index set T, so one kernel,
_power_sums, evaluates a whole table of them: every multiplier k against
every set at once, in blocks of about _BLOCK_ELEMENTS gathered elements
(one k when a single row is larger), so temporary memory stays below a
megabyte instead of growing as N^2. The character sums over every H-set
and the full sequence spectrum S(beta^k) are each one such table, compared
against their closed forms with array operations; a mismatch is reported
at the first k, in ascending order, that shows one.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import gf4
from .cyclotomy import ClassId, h_set
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


def _vec_mul_scalar(arr, y, d, tail, lomask):
    # arr * y for a whole uint32 array of packed elements, scalar y
    full = np.uint32((1 << (2 * d)) - 1)
    topshift = 2 * (d - 1)
    ta = _mul_alpha(tail, lomask)
    tail_tbl = np.array([0, tail, ta, tail ^ ta], dtype=np.uint32)
    acc = np.zeros_like(arr)
    for pos in range(d - 1, -1, -1):
        tops = (acc >> topshift) & 3
        acc = ((acc << np.uint32(2)) & full) ^ tail_tbl[tops]
        dig = (y >> (2 * pos)) & 3
        if dig == 1:
            acc ^= arr
        elif dig == 2:
            acc ^= _mul_alpha(arr, np.uint32(lomask))
        elif dig == 3:
            acc ^= arr ^ _mul_alpha(arr, np.uint32(lomask))
    return acc


# --- modulus selection -----------------------------------------------------

def _poly_powmod_4(t, reps, modulus):
    # t^(4^reps) mod modulus via repeated squaring (twice per step)
    for _ in range(reps):
        t = gf4.poly_divmod(gf4.poly_mul(t, t), modulus)[1]
        t = gf4.poly_divmod(gf4.poly_mul(t, t), modulus)[1]
    return t


def is_irreducible(poly):
    """Rabin's test over GF(4) for a monic polynomial."""
    d = gf4.poly_deg(poly)
    if d <= 0:
        return False
    if d == 1:
        return True
    if poly[0] == 0:
        return False
    x = gf4.poly([0, 1])
    xmod = gf4.poly_divmod(x, poly)[1]
    if not gf4.poly_eq(_poly_powmod_4(xmod, d, poly), xmod):
        return False
    for r in factorize(d):
        sub = gf4.poly_add(_poly_powmod_4(xmod, d // r, poly), xmod)
        if gf4.poly_is_zero(sub):
            return False
        if gf4.poly_deg(gf4.poly_gcd(sub, poly)) != 0:
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
    zeta_p: int
    zeta_q: int
    zeta_pq: int
    exp_table: object = field(repr=False)

    @property
    def group_order(self):
        return 4**self.d - 1

    def mul(self, x, y):
        return ext_mul(x, y, self.d, self.tail, self.lomask)

    def pow(self, x, e):
        return ext_pow(x, e, self.d, self.tail, self.lomask)

    def frobenius(self, x):
        return self.pow(x, 4)

    def element_order(self, x):
        if x == 0:
            raise InvalidParams("zero has no multiplicative order")
        order = self.group_order
        for r in factorize(order):
            while order % r == 0 and self.pow(x, order // r) == 1:
                order //= r
        return order


def _power_table(x, size, d, tail, lomask):
    # x^r for 0 <= r < size, doubling the filled prefix at each step
    out = np.zeros(size, dtype=np.uint32)
    out[0] = 1
    filled = 1
    while filled < size:
        scalar = ext_pow(x, filled, d, tail, lomask)
        take = min(filled, size - filled)
        out[filled:filled + take] = _vec_mul_scalar(out[:take], scalar,
                                                    d, tail, lomask)
        filled += take
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
        beta_powers=beta_powers,
        zeta_p=int(beta_powers[(p**(m - 1) * q**n) % N]),
        zeta_q=int(beta_powers[(p**m * q**(n - 1)) % N]),
        zeta_pq=int(beta_powers[(p**(m - 1) * q**(n - 1)) % N]),
        exp_table=None)


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


def char_sum(system, context, class_id, k):
    """Sum of beta^{k t} over the H-set of class_id, as a packed element."""
    _require_matching(system, context)
    elems = h_set(system, class_id)
    return int(_power_sums(context.beta_powers, [elems],
                           [k % context.N])[0, 0])


def measure_spectrum(system, context, mapping, allow_degenerate=True):
    """S(beta^k) for 0 <= k < N, exactly, as packed elements.

    Folds the two half-periods first (beta^{t+N} = beta^t), sums beta^{kt}
    over the support of each symbol value for every k in one table, then
    scales the three columns by their GF4 values. The default allows
    degenerate mappings since measuring those is the point of the
    falsification probes.
    """
    _require_matching(system, context)
    seq = build_sequence(system, mapping, allow_degenerate=allow_degenerate)
    N = context.N
    folded = seq.symbols[:N] ^ seq.symbols[N:]
    sums = _power_sums(context.beta_powers,
                       [np.nonzero(folded == v)[0] for v in (1, 2, 3)],
                       np.arange(N))
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


def verify_char_sum_tables(system, context):
    """Check every character sum over every doubled-modulus H-set.

    For each k = p^a q^b l in 1..N-1 and each cell (shape, i, j, h) the
    measured sum must match its closed form: an integer constant reduced
    mod 2 when the cell's exponents are dominated by (a, b), a root-of-
    unity sum over the base class on the boundary, and 0 beyond it. Both
    the measured and the expected values are whole (k, cell) tables.
    Raises LemmaViolation with the witness (k, cell) on the first
    mismatch, k ascending, then the 2pq cells (i, j, h), the 2p cells
    (i, h) and the 2q cells (j, h).
    """
    _require_matching(system, context)
    c = system.constants
    p, q, m, n = c.p, c.q, c.m, c.n
    N = context.N
    bp = context.beta_powers

    ks = np.arange(1, N, dtype=np.int64)
    a = _valuations(ks, p, N)
    b = _valuations(ks, q, N)
    l = ks // (p**a * q**b)

    def root_sums(shape, i, j, zeta_exp):
        # sums over the base class of zeta^t, zeta = beta^(zeta_exp * l)
        base = [system.classes[ClassId(shape, i, j, h)] for h in (0, 1)]
        return _power_sums(bp, base, zeta_exp % N * l % N)

    roots = {"2pq": root_sums("pq", 1, 1, p**(m - 1) * q**(n - 1)),
             "2p": root_sums("p", 1, 0, p**(m - 1) * q**n * q**b),
             "2q": root_sums("q", 0, 1, p**m * q**(n - 1) * p**a)}
    cells = ([ClassId("2pq", i, j, h) for i in range(1, m + 1)
              for j in range(1, n + 1) for h in (0, 1)]
             + [ClassId("2p", i, 0, h) for i in range(1, m + 1)
                for h in (0, 1)]
             + [ClassId("2q", 0, j, h) for j in range(1, n + 1)
                for h in (0, 1)])
    measured = _power_sums(bp, [h_set(system, cid) for cid in cells], ks)

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
