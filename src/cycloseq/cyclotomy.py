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
coset of g. check_structural_lemmas confirms this agrees with lifting:
family (i, j) lifts its base class (min(i, 1), min(j, 1)) in steps of
p^[i>0] q^[j>0].

Scaling each class by its cofactor p^(m-i) q^(n-j) gives the H-sets; the
doubled-modulus H-sets, two times the odd-modulus H-sets, and the two
singletons {0} and {p^m q^n} tile Z_{2 p^m q^n} exactly once. That tiling,
stored as a label array, is the single source of truth for sequence
generation; the per-index classifier classify_index recomputes labels
independently so the two paths can be cross-checked.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidParams, LemmaViolation, PartitionViolation
from .numtheory import (DEFAULT_PARAM_CAP, SystemConstants,
                        build_system_constants, two_is_square_mod)

ODD_SHAPES = ("pq", "p", "q")
DOUBLED_SHAPES = ("2pq", "2p", "2q")
ZERO_LABEL = "zero"
HALF_LABEL = "half"


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
    # family members keyed by base class; the lemma checks report the p,
    # q and pq families in that order
    out = {(1, 0): [], (0, 1): [], (1, 1): []}
    for i, j in _family_indices(m, n):
        out[min(i, 1), min(j, 1)].append((i, j))
    return out


def _check_class_id(constants, cid):
    if cid.shape not in ODD_SHAPES + DOUBLED_SHAPES:
        raise InvalidParams(f"unknown shape {cid.shape!r}")
    if cid.h not in (0, 1):
        raise InvalidParams(f"h must be 0 or 1, got {cid.h}")
    wants_i = "p" in cid.shape
    wants_j = "q" in cid.shape
    if wants_i and not 1 <= cid.i <= constants.m:
        raise InvalidParams(f"i out of range for {cid}")
    if wants_j and not 1 <= cid.j <= constants.n:
        raise InvalidParams(f"j out of range for {cid}")
    if not wants_i and cid.i != 0:
        raise InvalidParams(f"i must be 0 for shape {cid.shape}")
    if not wants_j and cid.j != 0:
        raise InvalidParams(f"j must be 0 for shape {cid.shape}")
    if cid.doubled and cid.shape not in ODD_SHAPES:
        raise InvalidParams("doubled applies only to odd-modulus shapes")


def _coset(mod, square, y, half_order, y_count, start):
    # Enumerates {start * square^t * y^k} for t < half_order, k < y_count.
    elems = set()
    x = start % mod
    for _ in range(half_order):
        v = x
        for _ in range(y_count):
            elems.add(v)
            v = v * y % mod
        x = x * square % mod
    return np.array(sorted(elems), dtype=np.int64)


def _sorted_set(arr):
    # the distinct values of arr, ascending, by marking them on their range
    mask = np.zeros(arr.max() - arr.min() + 1, dtype=bool)
    mask[arr - arr.min()] = True
    return np.nonzero(mask)[0] + arr.min()


def build_class(constants, cid):
    """D_h modulo p^i q^j (times 2 for a doubled shape), sorted.

    The doubled flag is ignored. Both moduli of a family have
    d_ij * e_ij / 2 residues per class: d_ij/2 powers of g^2 times e_ij
    powers of y, with e_ij = 1 on the prime-power families.
    """
    c = constants
    _check_class_id(c, cid)
    mod = (2 if cid.shape[0] == "2" else 1) * c.p**cid.i * c.q**cid.j
    d, e = c.d_ij[(cid.i, cid.j)], c.e_ij[(cid.i, cid.j)]
    start = 1 if cid.h == 0 else c.g
    out = _coset(mod, c.g * c.g % mod, c.y % mod, d // 2, e, start)
    if len(out) != d * e // 2:
        # a short coset means g or y lacks the order the constants claim
        raise LemmaViolation("class enumeration collapsed", cls=cid,
                             size=len(out), expected=d * e // 2)
    return out


def all_class_ids(m, n):
    """Deterministic enumeration of every class id (doubled=False)."""
    return [ClassId(_shape(i, j, two), i, j, h)
            for i, j in _family_indices(m, n)
            for h in (0, 1) for two in (False, True)]


def partition_labels(m, n):
    """Label table for the partition of Z_{2 p^m q^n}, fixed order."""
    # all_class_ids pairs each odd class with its doubled-modulus twin
    ids = all_class_ids(m, n)
    return (ZERO_LABEL, HALF_LABEL) + tuple(
        lab for odd, twin in zip(ids[::2], ids[1::2])
        for lab in (twin, odd._replace(doubled=True)))


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


def cofactor_of(constants, cid):
    """Scale factor embedding a class into Z_{p^m q^n} / Z_{2 p^m q^n}."""
    c = constants
    return c.p**(c.m - cid.i) * c.q**(c.n - cid.j)


@dataclass(frozen=True)
class CyclotomicSystem:
    """Constants plus every class table and the partition label array.

    Immutable after construction; safe to share across workers. classes is
    keyed by ClassId with doubled=False; partition holds indices into
    labels.
    """

    constants: SystemConstants
    classes: dict = field(repr=False)
    labels: tuple = field(repr=False)
    partition: np.ndarray = field(repr=False)

    @property
    def period(self):
        return self.constants.period

    @property
    def half_period(self):
        return self.constants.half_period


def h_set(system, cid):
    """The class scaled by its cofactor (and by 2 when the label says so)."""
    constants = system.constants
    _check_class_id(constants, cid)
    base = system.classes[ClassId(cid.shape, cid.i, cid.j, cid.h)]
    mult = cofactor_of(constants, cid) * (2 if cid.doubled else 1)
    return base * mult


def _paint_partition(constants, classes, labels):
    period = constants.period
    part = np.full(period, -1, dtype=np.int16)
    stub = CyclotomicSystem(constants=constants, classes=classes,
                            labels=labels, partition=part)
    for idx, lab in enumerate(labels):
        if lab == ZERO_LABEL:
            positions = np.array([0], dtype=np.int64)
        elif lab == HALF_LABEL:
            positions = np.array([constants.half_period], dtype=np.int64)
        else:
            positions = h_set(stub, lab)
        taken = positions[part[positions] != -1]
        if taken.size:
            t = int(taken[0])
            raise PartitionViolation(
                t, f"already labeled {labels[part[t]]} while labeling {lab}")
        part[positions] = idx
    missing = np.nonzero(part == -1)[0]
    if missing.size:
        raise PartitionViolation(int(missing[0]), "left unlabeled")
    return part


def build_system(p, q, m, n, cap=DEFAULT_PARAM_CAP):
    """Build constants, all classes, and the verified partition array."""
    constants = build_system_constants(p, q, m, n, cap=cap)
    classes = {cid: build_class(constants, cid) for cid in all_class_ids(m, n)}
    labels = partition_labels(m, n)
    partition = _paint_partition(constants, classes, labels)
    partition.flags.writeable = False
    return CyclotomicSystem(constants=constants, classes=classes,
                            labels=labels, partition=partition)


def build_partition(system):
    """Recompute the partition array from the stored classes.

    Raises PartitionViolation if any index is unlabeled or doubly labeled;
    that must never happen for a system built from valid parameters.
    """
    return _paint_partition(system.constants, system.classes, system.labels)


def _valuation(x, p, limit):
    v = 0
    while v < limit and x % p == 0:
        x //= p
        v += 1
    return v


def _member_side(system, shape, i, j, value):
    for h in (0, 1):
        arr = system.classes[ClassId(shape, i, j, h)]
        pos = int(np.searchsorted(arr, value))
        if pos < len(arr) and arr[pos] == value:
            return h
    return None


def classify_index(system, t):
    """Label index of position t, computed independently of the partition.

    Walks the definition directly: split off the factor 2, read the p/q
    valuations a, b (capped at m, n) to get the family (m - a, n - b),
    divide out the cofactor p^a q^b and binary-search the residue in the
    two candidate cosets.
    """
    c = system.constants
    p, q, m, n = c.p, c.q, c.m, c.n
    if not 0 <= t < c.period:
        raise InvalidParams(f"index {t} outside Z_{c.period}")
    if t == 0:
        return system.labels.index(ZERO_LABEL)
    if t == c.half_period:
        return system.labels.index(HALF_LABEL)

    doubled = t % 2 == 0
    u = t // 2 if doubled else t
    a = _valuation(u, p, m)
    b = _valuation(u, q, n)
    if a == m and b == n:
        raise PartitionViolation(t, "divisible by p^m q^n yet not special")
    i, j, cof = m - a, n - b, p**a * q**b
    shape = _shape(i, j, two=not doubled)
    if u % cof:
        raise PartitionViolation(t, "cofactor does not divide the index")
    h = _member_side(system, shape, i, j, u // cof)
    if h is None:
        raise PartitionViolation(t, f"residue missing from both {shape} cosets")
    return system.labels.index(ClassId(shape, i, j, h, doubled=doubled))


def _side_of_2(system, i, j):
    shape = _shape(i, j)
    h = _member_side(system, shape, i, j, 2)
    if h is None:
        raise PartitionViolation(2, f"2 missing from both {shape} cosets")
    return h


def residue_side_of_2(system, shape, i=1, j=1):
    """h with 2 in D_h for an odd-modulus shape ("p", "q" or "pq")."""
    if shape not in ODD_SHAPES:
        raise InvalidParams("2 is a unit only modulo the odd shapes")
    return _side_of_2(system, i if "p" in shape else 0,
                      j if "q" in shape else 0)


def check_structural_lemmas(system):
    """Exhaustive set-identity checks on the class tables.

    Verifies, as exact set equalities, that prime-power and mixed classes
    are the base classes lifted by multiples of the base modulus (with the
    odd-correction term for doubled moduli), that reducing a doubled-shape
    class modulo its odd part recovers the odd-shape class, and that the
    side of 2 is constant across exponents within each family, with sets
    as sorted arrays of distinct values. Returns a list of unraised
    LemmaViolation records; empty means everything holds.
    """
    out = []
    c = system.constants
    p, q = c.p, c.q
    families = _families(c.m, c.n)

    def check(cid, expected):
        got, expected = _sorted_set(system.classes[cid]), _sorted_set(expected)
        if not np.array_equal(got, expected):
            diff = set(got.tolist()).symmetric_difference(expected.tolist())
            out.append(LemmaViolation("class set identity failed",
                                      shape=cid, witness=min(diff)))

    for h in (0, 1):
        for (bi, bj), members in families.items():
            base = system.classes[ClassId(_shape(bi, bj), bi, bj, h)]
            step = p**bi * q**bj
            for i, j in members:
                mod = p**i * q**j
                lifted = np.add.outer(step * np.arange(mod // step), base)
                if (i, j) != (bi, bj):
                    check(ClassId(_shape(i, j), i, j, h), lifted)
                # the doubled modulus takes the odd member of {v, v + mod}
                check(ClassId(_shape(i, j, two=True), i, j, h),
                      lifted + mod * (lifted % 2 == 0))

        # doubled shape reduced mod its odd part must be the odd shape
        for i, j in families[1, 1]:
            got = _sorted_set(system.classes[ClassId("2pq", i, j, h)]
                              % (p**i * q**j))
            odd = _sorted_set(system.classes[ClassId("pq", i, j, h)])
            if not np.array_equal(got, odd):
                out.append(LemmaViolation(
                    "doubled class does not reduce onto the odd class",
                    shape=ClassId("2pq", i, j, h), witness=int(got[0])))

    # side of 2 must not depend on the exponent
    for base, members in families.items():
        sides = {_side_of_2(system, i, j) for i, j in members}
        if len(sides) > 1:
            plural = "s" if base == (1, 1) else ""
            out.append(LemmaViolation(
                f"side of 2 varies with the exponent{plural}",
                shape=_shape(*base), witness=sorted(sides)))
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
            if _side_of_2(system, i, j) != expect:
                mixed = base == (1, 1)
                out.append(LemmaViolation(
                    "pq side of 2 does not follow q's mod-8 rule" if mixed
                    else "side of 2 breaks the mod-8 rule",
                    shape=_shape(i, j), witness=(i, j) if mixed else i or j))
    return out
