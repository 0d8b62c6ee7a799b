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
and D_1 those that are not. check_structural_lemmas accepts every class
table that is that set, built from p and q alone, in one pass over its own
entries, and compares it with the set only to name a table that is not.

Scaling each class by its cofactor p^(m-i) q^(n-j) gives the H-sets; the
doubled-modulus H-sets, two times the odd-modulus H-sets, and the two
singletons {0} and {p^m q^n} tile Z_{2 p^m q^n} exactly once. The
doubled-modulus H-sets and p^m q^n fill the odd positions, and the even
half is their image under t -> 2t mod 2 p^m q^n. That tiling, its odd
half painted from one int64 table of g^s y^k mod 2 p^m q^n (exact below
the period ceiling of numtheory) and its even half copied from the odd,
is stored as a label array and is the single source of truth: a sequence
reads only its labels, and the class tables, which only verify's checks
read, are derived from it on first read. A paint that does not tile
raises PartitionViolation, its witness the least unlabeled index among
the bare odd positions and their doubles.

build_system holds the systems it has painted, keyed by (p, q, m, n), so
a process paints each system once: a sweep per mapping over one grid
repaints nothing. The least recently used system goes first, and the
held periods sum to at most HELD_POSITIONS label positions (16 MB of
int16); a system larger than that is returned and not held. Every call
is still checked against its cap, and a call that raises holds nothing.
A held system is read-only: its partition, its class tables, the
mapping of them and its constants' order tables.
"""

import collections
import functools
import threading
import types
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidParams, LemmaViolation, PartitionViolation
from .numtheory import (DEFAULT_PARAM_CAP, SystemConstants,
                        build_system_constants, euler_phi, two_is_square_mod)

ODD_SHAPES = ("pq", "p", "q")
DOUBLED_SHAPES = ("2pq", "2p", "2q")
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


def _families(m, n):
    # family members keyed by base class; check_residue_rules reports the
    # p, q and pq families in that order
    out = {(1, 0): [], (0, 1): [], (1, 1): []}
    for i, j in _family_indices(m, n):
        out[min(i, 1), min(j, 1)].append((i, j))
    return out


def _check_class_id(cid, valid_ids):
    if ClassId(*cid[:4]) not in valid_ids:
        raise InvalidParams(f"{cid} names no class of the system")
    if cid.doubled and cid.shape not in ODD_SHAPES:
        raise InvalidParams("doubled applies only to odd-modulus shapes")


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


def _sorted_set(arr):
    # the distinct values of arr, ascending; none for an empty table
    return np.unique(arr)


def all_class_ids(m, n):
    """Deterministic enumeration of every class id (doubled=False)."""
    return [ClassId(_shape(i, j, two), i, j, h)
            for i, j in _family_indices(m, n)
            for h in (0, 1) for two in (False, True)]


# one table per shape (m, n), of which the period ceiling allows a few hundred
@functools.cache
def partition_labels(m, n):
    """Label table for the partition of Z_{2 p^m q^n}, fixed order."""
    # each doubled-modulus class, then two times its odd-modulus twin
    return (ZERO_LABEL, HALF_LABEL) + tuple(
        ClassId(_shape(i, j, two), i, j, h, not two)
        for i, j in _family_indices(m, n)
        for h in (0, 1) for two in (True, False))


def bucket_of_label(label):
    """Symbol bucket of a partition label: a, b, c, d, zero or half.

    The doubled-modulus H-sets (odd positions) feed buckets a/b by coset;
    the doubled copies of odd-modulus H-sets (even positions) feed c/d.
    """
    if label == ZERO_LABEL:
        return "zero"
    if label == HALF_LABEL:
        return "half"
    if label.shape in DOUBLED_SHAPES:
        return "a" if label.h == 0 else "b"
    return "c" if label.h == 0 else "d"


@functools.cache
def bucket_codes(m, n):
    """Index into BUCKETS of each partition label, a read-only array."""
    codes = np.array([BUCKETS.index(bucket_of_label(lab))
                      for lab in partition_labels(m, n)], dtype=np.intp)
    codes.flags.writeable = False
    return codes


def cofactor_of(constants, cid):
    """Scale factor embedding a class into Z_{p^m q^n} / Z_{2 p^m q^n},
    times 2 for a doubled label."""
    c = constants
    return c.p**(c.m - cid.i) * c.q**(c.n - cid.j) * (2 if cid.doubled else 1)


@dataclass(frozen=True)
class CyclotomicSystem:
    """Constants, the partition label array and every class table.

    Immutable after construction; partition holds indices into labels.
    classes, keyed by ClassId with doubled=False, is derived on first read
    and kept: each label's positions, ascending, divided by its cofactor,
    in a read-only mapping of read-only arrays.
    """

    constants: SystemConstants
    labels: tuple = field(repr=False)
    partition: np.ndarray = field(repr=False)

    @functools.cached_property
    def classes(self):
        c, labels = self.constants, self.labels
        order = np.argsort(self.partition, kind="stable")
        ends = np.cumsum(np.bincount(self.partition,
                                     minlength=len(labels))).tolist()
        classes = {ClassId(*lab[:4]): order[start:end] // cofactor_of(c, lab)
                   for lab, start, end in zip(labels[2:], ends[1:], ends[2:])}
        for table in classes.values():
            table.flags.writeable = False
        return types.MappingProxyType(classes)

    @property
    def period(self):
        return self.constants.period

    @property
    def half_period(self):
        return self.constants.half_period


def h_set(system, cid):
    """The class scaled by its cofactor (and by 2 when the label says so)."""
    _check_class_id(cid, system.classes)
    mult = cofactor_of(system.constants, cid)
    return system.classes[ClassId(*cid[:4])] * mult


def _paint_partition(constants, classes, labels):
    # one scatter: the labels tile Z_period exactly when they hold period
    # positions and leave none at -1; a special label is {1} times its index
    period, one = constants.period, np.ones(1, dtype=np.int64)
    special = {ZERO_LABEL: 0, HALF_LABEL: constants.half_period}
    sets = [one if lab in special else classes[ClassId(*lab[:4])]
            for lab in labels]
    mults = [special[lab] if lab in special else cofactor_of(constants, lab)
             for lab in labels]
    sizes = [len(s) for s in sets]
    pos = np.concatenate(sets)
    pos *= np.repeat(mults, sizes)
    part = np.full(period, -1, dtype=np.int16)
    part[pos] = np.repeat(np.arange(len(labels), dtype=np.int16), sizes)
    if len(pos) == period and part.min() >= 0:
        return part
    # name the fault label by label: an index an earlier label holds, then
    # an index no label holds, then an index one label holds twice
    part[:] = -1
    for idx, positions in enumerate(np.split(pos, np.cumsum(sizes)[:-1])):
        taken = positions[part[positions] != -1]
        if taken.size:
            t = int(taken[0])
            raise PartitionViolation(t, f"already labeled {labels[part[t]]} "
                                        f"while labeling {labels[idx]}")
        part[positions] = idx
    missing = np.nonzero(part == -1)[0]
    if missing.size:
        raise PartitionViolation(int(missing[0]), "left unlabeled")
    t = int(np.nonzero(np.bincount(pos) > 1)[0][0])
    raise PartitionViolation(t, f"labeled twice by {labels[part[t]]}")


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

    def clear(self):
        with self.lock:
            self.systems.clear()
            self.positions = 0


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
    """Recompute the partition array from the stored classes.

    Raises PartitionViolation if any index is unlabeled or doubly labeled;
    that must never happen for a system built from valid parameters.
    """
    return _paint_partition(system.constants, system.classes, system.labels)


def residue_side_of_2(system, shape, i=1, j=1):
    """h with 2 in D_h for an odd-modulus shape ("p", "q" or "pq")."""
    if shape not in ODD_SHAPES:
        raise InvalidParams("2 is a unit only modulo the odd shapes")
    i, j = (i if "p" in shape else 0), (j if "q" in shape else 0)
    if ClassId(shape, i, j, 0) not in system.classes:
        raise InvalidParams(f"no {shape} family (i, j) = ({i}, {j})")
    for h in (0, 1):
        arr = system.classes[ClassId(shape, i, j, h)]
        pos = int(np.searchsorted(arr, 2))
        if pos < len(arr) and arr[pos] == 2:
            return h
    raise PartitionViolation(2, f"2 missing from both {shape} cosets")


def check_structural_lemmas(system):
    """Compare every class table with its Legendre class, from p and q alone.

    On family (i, j), modulus M = p^i q^j, take r = q if j > 0 else p: D_h
    holds the units x < M whose side is h, side 0 when x is a square mod
    r and 1 when it is not, and the doubled shape holds the odd units
    x < 2M by the same rule; g and y are never read. Each table is first
    accepted in one pass over its own entries: strictly increasing, in
    range, phi(M)/2 of them (the size of its Legendre class), each on side
    h and odd on the doubled shape, which together mean set equality. Only
    a table that fails is then compared as a set of distinct values, to
    name the fault. Returns a list of unraised LemmaViolation records, one
    per class that differs, witnessed by the least element of the
    symmetric difference; empty means every class holds.
    """
    out = []
    c = system.constants

    def check(cid, side, h, size):
        table = system.classes[cid]
        if (len(table) == size and 0 <= table[0] and table[-1] < len(side)
                and (np.diff(table) > 0).all() and (side[table] == h).all()):
            return
        got, expected = _sorted_set(table), np.flatnonzero(side == h)
        if not np.array_equal(got, expected):
            diff = set(got.tolist()).symmetric_difference(expected.tolist())
            out.append(LemmaViolation("class set identity failed",
                                      shape=cid, witness=min(diff)))

    for i, j in _family_indices(c.m, c.n):
        r, mod = (c.q if j else c.p), c.p**i * c.q**j
        # side of x: 0 on the squares mod r, 1 on the other units, 2 off
        # the units; it depends on x mod r (x mod pq on a mixed family)
        side = _qr_sides(r)
        if i and j:
            side = np.where(np.arange(c.p * r) % c.p, np.tile(side, c.p), 2)
        side = np.tile(side, 2 * mod // len(side))
        odd, size = side.copy(), euler_phi(mod) // 2
        odd[::2] = 2
        for h in (0, 1):
            check(ClassId(_shape(i, j), i, j, h), side[:mod], h, size)
            check(ClassId(_shape(i, j, two=True), i, j, h), odd, h, size)
    return out


def check_residue_rules(system):
    """Check the quadratic-residue side of 2 against the mod-8 rules.

    The p and q families place 2 in D_0 exactly when the respective prime
    is congruent to +/-1 mod 8; the pq family follows q. Returns unraised
    LemmaViolation records, empty on success.
    """
    out = []
    c = system.constants
    for base, members in _families(c.m, c.n).items():
        expect = 0 if two_is_square_mod(c.q if base[1] else c.p) else 1
        for i, j in members:
            if residue_side_of_2(system, _shape(i, j), i, j) != expect:
                mixed = base == (1, 1)
                out.append(LemmaViolation(
                    "pq side of 2 does not follow q's mod-8 rule" if mixed
                    else "side of 2 breaks the mod-8 rule",
                    shape=_shape(i, j), witness=(i, j) if mixed else i or j))
    return out
