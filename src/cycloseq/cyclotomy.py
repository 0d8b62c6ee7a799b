"""Generalized cyclotomic classes of order two and the index partition.

For distinct odd primes p, q and exponents m, n >= 1, fix the constants
(g, y) from numtheory. A family index (i, j) with 0 <= i <= m,
0 <= j <= n, not both 0, gives the modulus p^i q^j and its double
2 p^i q^j; j = 0 is the p-power family and i = 0 the q-power family, so
the six shapes p^i q^j, 2 p^i q^j, p^i, 2 p^i, q^j, 2 q^j are named "2"
(doubled), then "p" if i > 0, then "q" if j > 0.

For every shape the units split into two equal halves: D_0 = <g^2, y> and
its coset D_1 = g * D_0. With op = phi(p^i), oq = phi(q^j) (phi = 1 at
exponent 0) that is lcm(op, oq)/2 powers of g^2 times gcd(op, oq) powers
of y; on a prime-power family the y count is 1 and D_0 is the even-power
coset of g. Since g is a primitive root mod p and mod q and y = 1 (mod q),
these are Legendre classes: with r = q on the mixed and q-power families
and r = p on the p-power ones, D_0 holds the units that are squares mod r
and D_1 those that are not. So the label of every position follows from p
and q alone, through the cells of Z_N (cells, cell_index): build_partition
recomputes the label array that way, reading neither g nor y, and
check_structural_lemmas compares the paint with it in one comparison,
verify's one partition check. check_residue_rules reads per family the
label at 2's doubled copy: 2 lies in D_0 exactly when r = +/-1 mod 8; the
comparison covers it, so only the benchmark's reference tooling runs it.

Scaling each class by its cofactor p^(m-i) q^(n-j) gives the H-sets; the
doubled-modulus H-sets, two times the odd-modulus H-sets, and the two
singletons {0} and {p^m q^n} tile Z_{2 p^m q^n} exactly once. The
doubled-modulus H-sets and p^m q^n fill the odd positions, and the even
half is their image under t -> 2t mod 2 p^m q^n. That tiling, its odd
half painted from one int64 table of g^s y^k mod 2 p^m q^n (exact below
the period ceiling of numtheory) and its even half copied from the odd,
is stored as a label array and is the single source of truth: a sequence
reads only its labels, or the bucket-cell table derived from them on
first read, and h_set reads the positions of one label. A paint that does
not tile raises PartitionViolation, its witness the least unlabeled index
among the bare odd positions and their doubles.

The bucket-cell table (CyclotomicSystem.bucket_cells, _bucket_cells) is a
span certificate. Each bucket's indicator splits into E, its even
positions t at x^(t mod N), and O, its odd ones; a root of x^N - 1 of
exact order M = p^i q^j lies in a cell of level M. A polynomial takes
one value on each cell of level M exactly when, mod Phi_M, it lies in the
GF(4) span of 1, R_p, R_q and R_p R_q, R_r = sum over the squares s mod r
of x^((M/r) s), r | M: the two-prime case of the quadratic-residue
idempotents (MacWilliams and Sloane, The Theory of Error-Correcting
Codes, ch. 16; Ding, Helleseth and Shan, IEEE T-IT 44(3), 1998). R_r
takes the Gaussian period eta_l of r on the cells of Legendre bit l,
eta_pair's digits, as the closed form (_cell_sums) takes them; the table's
rows have _cell_sums' layout. Each basis polynomial is one numpy scatter
of its exponents (_spread), R_p R_q's one outer sum mod M, and each level
folds the one above it by gf4.fold. Membership needs no division by
Phi_M: with A = (x^(M/p) - 1)(x^(M/q) - 1), a binomial left out where
its prime does not divide M, x^M - 1 is Phi_M times a divisor of A, and
it is squarefree (M is odd), so Phi_M divides D exactly when x^M - 1
divides D A. The shift key (_shift_key) is D A mod x^M - 1: two
binomial products and one split at x^M. It is GF(2)-linear, so a dict
of the keys of the basis' 2 to 16 GF(2) combinations (_spans) reads off
each component's span coefficients, and so its value per cell; a key
outside it raises LemmaViolation("not constant on cells"). Both
tables live here, and bucket_cells compares them once, when it is
derived; cell_char_sums gives the closed form's sums per family.

build_system holds the systems it has painted, keyed by (p, q, m, n), and
every command of the CLI takes its systems from it, so a process paints
each system once: a sweep per mapping over one grid, or a verify of a
system already painted, repaints nothing. The least recently used system
goes first, and the held periods sum to at most HELD_POSITIONS label
positions (16 MB of int16); a system larger than that is returned and not
held. Every call is still checked against its cap, and a call that raises
holds nothing. A held system is read-only: its partition, its
bucket-cell table (a tuple), verify's checked char-sum report (char_sums)
and its constants' order tables; it keeps each table once derived, so
each system derives it once per process, and it goes with the system
when the system is evicted.
"""

import collections
import functools
import itertools
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import gf4
from .errors import (InvalidParams, LemmaViolation, MethodDisagreement,
                     PartitionViolation)
from .numtheory import (DEFAULT_PARAM_CAP, SystemConstants,
                        build_system_constants, two_is_square_mod)

ZERO_LABEL = "zero"
HALF_LABEL = "half"
BUCKETS = ("zero", "half", "a", "b", "c", "d")
# label positions build_system may hold: a census of the 980 pairs with
# pq <= 5 000 at (1, 1) paints 4 904 576
HELD_POSITIONS = 2**23


class ClassId(NamedTuple):
    """Identifies one cyclotomic class (and, with doubled, one H-set label).

    shape is one of "pq", "2pq", "p", "2p", "q", "2q"; i is the p-exponent
    (0 for the q-only shapes), j the q-exponent (0 for the p-only shapes),
    h the coset index. doubled marks the 2*H copies of odd-modulus H-sets
    inside the partition and is never set on doubled-modulus shapes.
    """

    shape: str
    i: int
    j: int
    h: int
    doubled: bool = False


def _shape(i, j, two=False):
    return ("2" if two else "") + ("p" if i else "") + ("q" if j else "")


def _family_indices(m, n):
    # the mixed grid first, then the p-power and the q-power families
    return ([(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
            + [(i, 0) for i in range(1, m + 1)]
            + [(0, j) for j in range(1, n + 1)])


def _powers(base, count, mod):
    # base^0 .. base^(count-1) mod mod: the first 64 by int products, then
    # by doubling the filled prefix; the period ceiling keeps mod below
    # 2^31, so int64 products stay exact
    head = [1 % mod]
    for _ in range(min(count, 64) - 1):
        head.append(head[-1] * base % mod)
    out = np.empty(count, dtype=np.int64)
    out[:len(head)] = head
    filled, step = len(head), pow(base, len(head), mod)
    while filled < count:
        k = min(filled, count - filled)
        out[filled:filled + k] = out[:k] * step % mod
        filled, step = filled + k, step * step % mod
    return out


def _qr_sides(r):
    # x mod the odd prime r: 0 on the squares, 1 on other units, 2 at 0
    side = np.ones(r, dtype=np.int8)
    side[np.arange(1, r)**2 % r], side[0] = 0, 2
    return side


def cells(p, q, m, n):
    """Each live cell (a, b, lp, lq) of Z_N with its size, keys ascending.
    k = p^a q^b l, (a, b) capped at (m, n), lies in the cell
    (a, b, [(l|p) = -1], [(l|q) = -1]), a Legendre bit being 0 at its cap.
    The cell holds phi(p^(m-a)) phi(q^(n-b)) / 2^s members, s the number
    of bits below their cap.
    """
    for a in range(m + 1):
        for b in range(n + 1):
            size = ((p - 1) * p**(m - a - 1) if a < m else 1) * (
                (q - 1) * q**(n - b - 1) if b < n else 1) >> (
                (a < m) + (b < n))
            for lp in (0, 1) if a < m else (0,):
                for lq in (0, 1) if b < n else (0,):
                    yield (a, b, lp, lq), size


def cell_index(constants):
    """Position in cells' order of the cell of each k in Z_N, k = 0..N-1.
    v_p(k) and v_q(k), capped at m and n, count the strided multiples of
    p^t and q^t that reach k, in place of a % pass per prime power."""
    c = constants
    a, b = np.zeros((2, c.half_period), dtype=np.int64)
    for v, r, top in ((a, c.p, c.m), (b, c.q, c.n)):
        for t in range(1, top + 1):
            v[::r**t] += 1
    l = np.arange(c.half_period) // (c.p**a * c.q**b)
    lp = np.where(a < c.m, _qr_sides(c.p)[l % c.p], 0)
    lq = np.where(b < c.n, _qr_sides(c.q)[l % c.q], 0)
    # position by key, dead keys left unset
    keys = [key for key, _ in cells(c.p, c.q, c.m, c.n)]
    where = np.empty((c.m + 1, c.n + 1, 2, 2), dtype=np.intp)
    where[tuple(zip(*keys))] = range(len(keys))
    return where[a, b, lp, lq]


def eta_pair(r):
    """The Gaussian periods (eta_0, eta_1) of the odd prime r as GF(4)
    digits: (0, 1) where 2 is a square mod r, else (alpha, alpha^2)."""
    return (0, 1) if two_is_square_mod(r) else (2, 3)


def cell_char_sums(p, q, m, n, cell, periods):
    """T_0, T_1 of each family, in _family_indices order, at a k in the
    cell (a, b, lp, lq); periods holds (eta_0, eta_1) of p and of q in any
    form where 1 is 1 and + is XOR.

    Family r^i, at v = v_r(k) and the Legendre bit ns of k's unit part, has
    T_h = 0 when v < i - 1, eta_(h + ns) when v = i - 1, and phi(r^i) / 2
    ones, [r = 3 mod 4], when v >= i. The unit part keeps the other prime's
    power, so ns picks up (q|p)^b on the p-power families and (p|q)^a on
    the q-power ones. A mixed family (i, j) is its Ramanujan sum mod p^i,
    odd iff a = i - 1, times the sums of k p^(-i) at q, twisted by (p|q).
    """
    a, b, lp, lq = cell
    # Euler's criterion: [(q|p) = -1] and [(p|q) = -1]
    q_at_p, p_at_q = (int(pow(x, r // 2, r) != 1) for x, r in ((q, p), (p, q)))
    out = []
    for i, j in _family_indices(m, n):
        r, top, v, ns = ((q, j, b, lq ^ (p_at_q if i else a & p_at_q))
                         if j else (p, i, a, lp ^ (b & q_at_p)))
        if (i and j and a != i - 1) or v < top - 1:
            out += 0, 0
        elif v >= top:
            out += (int(r % 4 == 3),) * 2
        else:
            out += periods[bool(j)][ns], periods[bool(j)][1 - ns]
    return out


# one table per system, which bucket_cells and analysis.predict_lc read
@functools.cache
def _cell_sums(p, q, m, n):
    """The closed form's rows, in bucket_cells' layout: per cell, its size
    and each bucket's E << 2 | O. With T_0, T_1, T_s of cell_char_sums
    added over the families at eta_pair's periods, half has O = 1, a and b
    O = T_0 and T_1, c and d E = T_s and T_(1-s); T_s adds each family's
    T_h with 2 in D_h, p's side on the p-power families and q's on the
    others."""
    periods = [eta_pair(p), eta_pair(q)]
    sides = [not two_is_square_mod(q if j else p)
             for _, j in _family_indices(m, n)]
    out = []
    for key, size in cells(p, q, m, n):
        sums = cell_char_sums(p, q, m, n, key, periods)
        t0 = t1 = ts = 0
        for x0, x1, side in zip(sums[0::2], sums[1::2], sides):
            t0, t1, ts = t0 ^ x0, t1 ^ x1, ts ^ (x1 if side else x0)
        out.append((size, 1, t0, t1, ts << 2, (t0 ^ t1 ^ ts) << 2))
    return tuple(out)


def _shift_key(x, size, u, v):
    """K(x) = x A mod x^M - 1 for x of degree < M = size, where
    A = (x^u + 1)(x^v + 1), u = M/p and v = M/q, a factor left out (its
    step 0) where its prime does not divide M: Y = x A split at x^M,
    Y_lo + Y_hi. K is GF(2)-linear, and K(x) = 0 exactly when Phi_M
    divides x, as x^M - 1 is squarefree and Phi_M times a divisor of A."""
    for step in (u, v):
        if step:
            x ^= x << step
    return (x & ((1 << size) - 1)) ^ (x >> size)


def _spread(exponents, size):
    # the GF(2) polynomial of degree < size with a 1 at each exponent
    bits = np.zeros(size, dtype=bool)
    bits[exponents] = True
    return int.from_bytes(np.packbits(bits, bitorder="little"), "little")


def _spans(p, q, size, u, v):
    """Each GF(2) combination of the basis 1, R_p, R_q, R_p R_q of the
    level M = size, R_r kept where r | M, keyed by its shift key: its
    values on the level's cells, (lp, lq) ascending. R_r puts x^((M/r) s)
    at each square s mod r and takes eta_l of r at Legendre bit l; R_p R_q
    puts x^((M/p) s + (M/q) t mod M) at each pair of squares."""
    sp, sq = (np.arange(1, (r + 1) // 2, dtype=np.int64)**2 % r
              for r in (p, q))
    ep, eq = eta_pair(p), eta_pair(q)
    bits = [(lp, lq) for lp in ((0, 1) if u else (0,))
            for lq in ((0, 1) if v else (0,))]
    basis = [(1, [1] * len(bits))]
    if u:
        basis.append((_spread(u * sp, size), [ep[lp] for lp, _ in bits]))
    if v:
        basis.append((_spread(v * sq, size), [eq[lq] for _, lq in bits]))
    if u and v:
        basis.append((_spread(np.add.outer(u * sp, v * sq) % size, size),
                      [gf4._MUL[ep[lp]][eq[lq]] for lp, lq in bits]))
    spans = {0: (0,) * len(bits)}
    for poly, values in basis:
        k = _shift_key(poly, size, u, v)
        spans.update({key ^ k: tuple(x ^ y for x, y in zip(have, values))
                      for key, have in list(spans.items())})
    return spans


def _bucket_cells(system):
    """CyclotomicSystem.bucket_cells' table, unchecked, measured off the
    paint and the squares mod p and q (module docstring). Each E and O,
    folded mod x^M - 1 from the level above it, p or q times as long, must
    match one of _spans' keys at each level M; its values name the cells."""
    c = system.constants
    p, q, m, n, half = c.p, c.q, c.m, c.n, c.half_period
    codes = bucket_codes(m, n).astype(np.uint8)[system.partition]
    even = ((1 << (half + 1)) - 1) // 3
    odd = ((1 << half) - 1) ^ even
    parts, top = [], []
    for b, name in enumerate(BUCKETS[1:], 1):
        x = int.from_bytes(np.packbits(codes == b, bitorder="little"),
                           "little")
        lo, hi = x & ((1 << half) - 1), x >> half
        parts += [(name, "E"), (name, "O")]
        top += [(lo & even) | (hi & odd), (lo & odd) | (hi & even)]
    rows, level, folds = [], None, {(m, n): top}
    for (a, b, _, _), size in cells(p, q, m, n):
        if (a, b) != level:
            level, at, i, j = (a, b), 0, m - a, n - b
            width = p**i * q**j
            if (i, j) not in folds:
                folds[i, j] = [gf4.fold(x, width) for x in folds[
                    (i, j + 1) if j < n else (i + 1, j)]]
            u, v = width // p if i else 0, width // q if j else 0
            spans, values = _spans(p, q, width, u, v), []
            for (name, part), x in zip(parts, folds[i, j]):
                found = spans.get(_shift_key(x, width, u, v))
                if found is None:
                    raise LemmaViolation("not constant on cells", level=width,
                                         bucket=name, part=part)
                values.append(found)
        rows.append((size, *(values[2 * k][at] << 2 | values[2 * k + 1][at]
                             for k in range(len(BUCKETS) - 1))))
        at += 1
    return tuple(rows)


# one table per shape (m, n), of which the period ceiling allows a few hundred
@functools.cache
def partition_labels(m, n):
    """Label table for the partition of Z_{2 p^m q^n}, fixed order."""
    # each doubled-modulus class, then two times its odd-modulus twin
    return (ZERO_LABEL, HALF_LABEL) + tuple(
        ClassId(_shape(i, j, two), i, j, h, not two)
        for i, j in _family_indices(m, n)
        for h in (0, 1) for two in (True, False))


@functools.cache
def bucket_codes(m, n):
    """Index into BUCKETS of each partition label, a read-only array: zero,
    half, then per family a, c, b, d, as its label 4 f + 2 h + 2 is the
    doubled-modulus H-set of coset h (odd positions, buckets a and b) and
    4 f + 2 h + 3 the doubled copy of its odd-modulus twin (c and d)."""
    codes = np.array([0, 1] + [2, 4, 3, 5] * len(_family_indices(m, n)),
                     dtype=np.intp)
    codes.flags.writeable = False
    return codes


@dataclass(frozen=True)
class CyclotomicSystem:
    """Constants and the partition label array.

    Immutable after construction; partition holds indices into labels.
    bucket_cells is derived on first read and kept, a tuple: per cell, in
    cells order, the cell's size, then per bucket half, a, b, c, d its
    GF(4) values on E and O as E << 2 | O (_bucket_cells). A sequence's
    E and O, sum v_b 1_b, follow from it by linearity. It must equal
    _cell_sums, or each read raises MethodDisagreement naming the first
    cell and bucket where they differ and both (E, O) pairs.

    char_sums, what verify checks once per system (extfield's
    checked_char_sums: the paint against its cells, then the char-sum
    table), is also derived on first read and kept, read-only. A read that
    raises keeps nothing, so a failing system fails at every read.
    """

    constants: SystemConstants
    labels: tuple = field(repr=False)
    partition: np.ndarray = field(repr=False)

    @functools.cached_property
    def bucket_cells(self):
        c = self.constants
        rows, want = _bucket_cells(self), _cell_sums(c.p, c.q, c.m, c.n)
        if rows != want:
            # a missing row reads as zeros, which differ at half (O = 1)
            for (key, _), got, exp in itertools.zip_longest(
                    cells(c.p, c.q, c.m, c.n), rows, want, fillvalue=(0,) * 6):
                for name, x, y in zip(BUCKETS[1:], got[1:], exp[1:]):
                    if x != y:
                        raise MethodDisagreement(
                            f"bucket basis gives {name} (E, O) = "
                            f"{divmod(x, 4)} on cell {key}, the closed form "
                            f"{divmod(y, 4)}")
        return rows

    @functools.cached_property
    def char_sums(self):
        # extfield builds on this module, so it is imported at first read
        from .extfield import build_extension, checked_char_sums
        return checked_char_sums(self, build_extension(self.half_period))

    @property
    def period(self):
        return self.constants.period

    @property
    def half_period(self):
        return self.constants.half_period


def h_set(system, label):
    """The positions of one partition label, ascending: the H-set it names
    in Z_2N. InvalidParams for a label the system lacks."""
    if label not in system.labels:
        raise InvalidParams(f"{label} labels no position of the system")
    return np.flatnonzero(system.partition == system.labels.index(label))


class _HeldSystems:
    """Painted systems by key, least recently used first, whose periods
    sum to at most budget positions; safe to share between threads."""

    def __init__(self, budget):
        self.budget, self.positions = budget, 0
        self.systems = collections.OrderedDict()
        self.lock = threading.Lock()

    def get(self, key, cap):
        # a system over cap is not returned: the cold call raises
        with self.lock:
            system = self.systems.get(key)
            if system is None or system.period > cap:
                return None
            self.systems.move_to_end(key)
            return system

    def hold(self, key, system):
        # two threads may paint one key; the first to finish is held
        with self.lock:
            if system.period > self.budget or key in self.systems:
                return
            while self.positions + system.period > self.budget:
                self.positions -= self.systems.popitem(last=False)[1].period
            self.systems[key] = system
            self.positions += system.period


HELD = _HeldSystems(HELD_POSITIONS)


def build_system(p, q, m, n, cap=DEFAULT_PARAM_CAP):
    """Build constants and the partition off one power table, or return
    the system an earlier call built, when its period is within cap."""
    # typed, as 3.0 == 3 while a cold call refuses 3.0
    key = (p, q, m, n, type(p), type(q), type(m), type(n))
    system = HELD.get(key, cap)
    if system is None:
        system = _system_from_constants(
            build_system_constants(p, q, m, n, cap=cap))
        HELD.hold(key, system)
    return system


def _system_from_constants(constants):
    """The system painted from T = g^s y^k mod 2N, s < d_mn, k < e_mn.

    Family (i, j), cofactor cof, is T[:d_ij, :e_ij], row s in coset s mod
    2; x = T mod 2 p^i q^j lands at the odd position cof x. Only this odd
    half is painted: as 2 cof x = 2 cof (x mod p^i q^j) (mod 2N), the even
    position 2t mod 2N holds the label of t plus one, filled by two strided
    copies, and the even half tiles exactly when the odd half does. It
    does when its N writes (2N counted over both halves) leave no odd
    index at -1. Any other paint means g or y lacks an order the constants
    claim: it raises PartitionViolation at the least index left unlabeled,
    taken over the bare odd indices and their doubles mod 2N, or, with
    every index painted, at index 2N on its write count over both halves.
    """
    c = constants
    period, half, fams = c.period, c.half_period, _family_indices(c.m, c.n)
    table = np.outer(_powers(c.g, c.d_ij[c.m, c.n], period),
                     _powers(c.y, c.e_ij[c.m, c.n], period)) % period
    # family f, coset h: label 4 f + 2 h + 2 at odd positions, + 3 at even
    coset = 2 * (np.arange(len(table), dtype=np.int16)[:, None] % 2)
    part = np.full(period, -1, dtype=np.int16)
    part[half] = 1
    writes = 2
    for f, (i, j) in enumerate(fams):
        d, e, mod = c.d_ij[i, j], c.e_ij[i, j], 2 * c.p**i * c.q**j
        part[period // mod * (table[:d, :e] % mod)] = coset[:d] + (4 * f + 2)
        writes += 2 * d * e
    odd = part[1::2]
    if writes != period or odd.min() < 0:
        bare = 2 * np.flatnonzero(odd < 0) + 1
        if bare.size:
            least = min(bare.min(), (2 * bare % period).min())
            raise PartitionViolation(int(least), "left unlabeled")
        raise PartitionViolation(period, f"{writes} writes for "
                                         f"{period} indices")
    part[2::4] = part[1:half:2] + 1
    part[0::4] = part[half::2] + 1
    part[0] = 0
    part.flags.writeable = False
    return CyclotomicSystem(constants=constants,
                            labels=partition_labels(c.m, c.n), partition=part)


def build_partition(system):
    """The partition's label array from p and q alone, through the cells of
    Z_N: it reads neither the paint nor g and y. Position t lies in the cell
    (a, b, lp, lq) of k = t mod N at odd t and k = t / 2 at even t; its
    label is family (m - a, n - b), coset lq when b < n and lp otherwise,
    the doubled-modulus label at odd t and the doubled copy of the
    odd-modulus class at even t. 0 and N keep zero and half.
    """
    c = system.constants
    # (0, 0) stands for the cell of k = 0, whose positions are set below
    fams = _family_indices(c.m, c.n) + [(0, 0)]
    # label 4 f + 2 h + 2 at the odd positions of family f, coset h
    odd = np.array([4 * fams.index((c.m - a, c.n - b)) + 2
                    + 2 * (lq if b < c.n else lp)
                    for (a, b, lp, lq), _ in cells(c.p, c.q, c.m, c.n)],
                   dtype=np.int16)[cell_index(c)]
    part = np.empty(c.period, dtype=np.int16)
    part[0::2] = odd + 1
    # the odd t < N, then the odd t > N, whose k = t - N are even
    part[1::2] = np.concatenate([odd[1::2], odd[0::2]])
    part[0], part[c.half_period] = 0, 1
    return part


def check_structural_lemmas(system):
    """One comparison of the painted partition with build_partition's: the
    paint comes from g and y, build_partition from p and q alone. Returns
    unraised LemmaViolation records: none when they agree, else one naming
    the least index t where they differ, its painted label and the label
    its cell names.
    """
    want = build_partition(system)
    differ = np.flatnonzero(system.partition != want)
    if not differ.size:
        return []
    t, labels = int(differ[0]), system.labels
    got = int(system.partition[t])
    return [LemmaViolation(
        "partition differs from its cells' labels", index=t,
        painted=labels[got] if 0 <= got < len(labels) else got,
        cells=labels[want[t]])]


def check_residue_rules(system):
    """Check the side of 2 in each family against the mod-8 rule: family
    f, cofactor cof, must hold at 4 cof mod 2N, the doubled copy of 2, the
    label 4 f + 2 h + 3 of the coset h the rule names (h = 0 when the
    family's prime, p on the p-power families and q on the others, is
    +/-1 mod 8). Returns unraised LemmaViolation records, one per family
    holding any other label there, p-power, q-power, then mixed."""
    c = system.constants
    fams = _family_indices(c.m, c.n)
    out = []
    for f in [*range(c.m * c.n, len(fams)), *range(c.m * c.n)]:
        i, j = fams[f]
        h = 1 - two_is_square_mod(c.q if j else c.p)
        t = 4 * c.p**(c.m - i) * c.q**(c.n - j) % c.period
        if system.partition[t] != 4 * f + 2 * h + 3:
            out.append(LemmaViolation(
                "pq side of 2 does not follow q's mod-8 rule" if i and j
                else "side of 2 breaks the mod-8 rule",
                shape=_shape(i, j), witness=(i, j) if i and j else i or j))
    return out
