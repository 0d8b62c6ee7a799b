"""Generalized cyclotomic classes of order two and the index partition.

For distinct odd primes p, q and exponents m, n >= 1, fix the constants
(g, y) from numtheory. For each modulus R in one of the six shapes

    p^i q^j,  2 p^i q^j,  p^i,  2 p^i,  q^j,  2 q^j

the units of R split into two equal halves: D_0 generated by the even
powers of g together with the powers of y, and its coset D_1 = g * D_0.
(For the prime-power shapes y acts trivially on one side or coincides with
a power of g on the other, so D_0 there is simply the even-power coset of
g; the lift identities checked by check_structural_lemmas confirm that this
convention agrees with the classes-by-lifting description.)

Scaling each class by its cofactor (p^{m-i} q^{n-j}, p^{m-i} q^n or
p^m q^{n-j}) gives the H-sets; the doubled-modulus H-sets, two times the
odd-modulus H-sets, and the two singletons {0} and {p^m q^n} tile
Z_{2 p^m q^n} exactly once. That tiling, stored as a label array, is the
single source of truth for sequence generation; the per-index classifier
classify_index recomputes labels independently so the two paths can be
cross-checked.
"""

from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

from .errors import InvalidParams, LemmaViolation, PartitionViolation
from .numtheory import (DEFAULT_PARAM_CAP, SystemConstants,
                        build_system_constants, euler_phi)

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


Label = Union[str, ClassId]


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


def _require_size(out, size, what):
    # a short coset means g or y does not have the order the constants claim
    if len(out) != size:
        raise LemmaViolation("class enumeration collapsed", cls=what,
                             size=len(out), expected=size)
    return out


def build_class_pq(constants, i, j, h):
    """D_h modulo p^i q^j, as a sorted array of phi(p^i q^j)/2 residues."""
    c = constants
    cid = ClassId("pq", i, j, h)
    _check_class_id(c, cid)
    mod = c.p**i * c.q**j
    d, e = c.d_ij[(i, j)], c.e_ij[(i, j)]
    start = 1 if h == 0 else c.g
    out = _coset(mod, c.g * c.g % mod, c.y % mod, d // 2, e, start)
    return _require_size(out, d * e // 2, cid)


def build_class_2pq(constants, i, j, h):
    """D_h modulo 2 p^i q^j; same cardinality as the odd-modulus class."""
    c = constants
    cid = ClassId("2pq", i, j, h)
    _check_class_id(c, cid)
    mod = 2 * c.p**i * c.q**j
    d, e = c.d_ij[(i, j)], c.e_ij[(i, j)]
    start = 1 if h == 0 else c.g
    out = _coset(mod, c.g * c.g % mod, c.y % mod, d // 2, e, start)
    return _require_size(out, d * e // 2, cid)


def build_class_prime_power(constants, which, i, doubled, h):
    """D_h modulo p^i / 2p^i (or q^i / 2q^i), the even-power coset of g."""
    c = constants
    if which == "p":
        prime, top = c.p, c.m
    elif which == "q":
        prime, top = c.q, c.n
    else:
        raise InvalidParams(f"which must be 'p' or 'q', got {which!r}")
    if not 1 <= i <= top:
        raise InvalidParams(f"exponent {i} out of range for {which}")
    mod = prime**i * (2 if doubled else 1)
    half = euler_phi(prime**i) // 2
    start = 1 if h == 0 else c.g
    out = _coset(mod, c.g * c.g % mod, 1, half, 1, start)
    return _require_size(out, half, (which, i, doubled, h))


def class_for(constants, cid):
    """Dispatch to the right builder; the doubled flag is ignored here."""
    _check_class_id(constants, cid)
    if cid.shape in ("pq", "2pq"):
        build = build_class_pq if cid.shape == "pq" else build_class_2pq
        return build(constants, cid.i, cid.j, cid.h)
    which = "p" if cid.shape in ("p", "2p") else "q"
    exp = cid.i if which == "p" else cid.j
    return build_class_prime_power(constants, which, exp,
                                   cid.shape.startswith("2"), cid.h)


def all_class_ids(m, n):
    """Deterministic enumeration of every class id (doubled=False)."""
    out = []
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            for h in (0, 1):
                out.append(ClassId("pq", i, j, h))
                out.append(ClassId("2pq", i, j, h))
    for i in range(1, m + 1):
        for h in (0, 1):
            out.append(ClassId("p", i, 0, h))
            out.append(ClassId("2p", i, 0, h))
    for j in range(1, n + 1):
        for h in (0, 1):
            out.append(ClassId("q", 0, j, h))
            out.append(ClassId("2q", 0, j, h))
    return out


def partition_labels(m, n):
    """Label table for the partition of Z_{2 p^m q^n}, fixed order."""
    labels = [ZERO_LABEL, HALF_LABEL]
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            for h in (0, 1):
                labels.append(ClassId("2pq", i, j, h))
                labels.append(ClassId("pq", i, j, h, doubled=True))
    for i in range(1, m + 1):
        for h in (0, 1):
            labels.append(ClassId("2p", i, 0, h))
            labels.append(ClassId("p", i, 0, h, doubled=True))
    for j in range(1, n + 1):
        for h in (0, 1):
            labels.append(ClassId("2q", 0, j, h))
            labels.append(ClassId("q", 0, j, h, doubled=True))
    return tuple(labels)


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
    if cid.shape in ("pq", "2pq"):
        return c.p**(c.m - cid.i) * c.q**(c.n - cid.j)
    if cid.shape in ("p", "2p"):
        return c.p**(c.m - cid.i) * c.q**c.n
    return c.p**c.m * c.q**(c.n - cid.j)


@dataclass(frozen=True)
class CyclotomicSystem:
    """Constants plus every class table and the partition label array.

    Immutable after construction; safe to share across workers. classes is
    keyed by ClassId with doubled=False; partition holds indices into
    labels; label_index inverts labels.
    """

    constants: SystemConstants
    classes: dict = field(repr=False)
    labels: tuple = field(repr=False)
    label_index: dict = field(repr=False)
    partition: np.ndarray = field(repr=False)

    @property
    def period(self):
        return self.constants.period

    @property
    def half_period(self):
        return self.constants.half_period

    def class_of(self, cid):
        return self.classes[ClassId(cid.shape, cid.i, cid.j, cid.h)]


def h_set(system, cid):
    """The class scaled by its cofactor (and by 2 when the label says so)."""
    constants = system.constants
    _check_class_id(constants, cid)
    base = system.class_of(cid)
    mult = cofactor_of(constants, cid) * (2 if cid.doubled else 1)
    return base * mult


def _paint_partition(constants, classes, labels):
    period = constants.period
    part = np.full(period, -1, dtype=np.int16)
    stub = CyclotomicSystem(constants=constants, classes=classes,
                            labels=labels, label_index={}, partition=part)
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
    classes = {cid: class_for(constants, cid) for cid in all_class_ids(m, n)}
    labels = partition_labels(m, n)
    partition = _paint_partition(constants, classes, labels)
    partition.flags.writeable = False
    label_index = {lab: k for k, lab in enumerate(labels)}
    return CyclotomicSystem(constants=constants, classes=classes,
                            labels=labels, label_index=label_index,
                            partition=partition)


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
    valuations to find the shape and exponents, divide out the cofactor and
    binary-search the residue in the two candidate cosets.
    """
    c = system.constants
    p, q, m, n = c.p, c.q, c.m, c.n
    if not 0 <= t < c.period:
        raise InvalidParams(f"index {t} outside Z_{c.period}")
    if t == 0:
        return system.label_index[ZERO_LABEL]
    if t == c.half_period:
        return system.label_index[HALF_LABEL]

    doubled = t % 2 == 0
    u = t // 2 if doubled else t
    a = _valuation(u, p, m)
    b = _valuation(u, q, n)
    if a < m and b < n:
        shape, i, j = "pq", m - a, n - b
        cof = p**a * q**b
    elif a < m:
        shape, i, j = "p", m - a, 0
        cof = p**a * q**n
    elif b < n:
        shape, i, j = "q", 0, n - b
        cof = p**m * q**b
    else:
        raise PartitionViolation(t, "divisible by p^m q^n yet not special")
    if not doubled:
        shape = "2" + shape
    if u % cof:
        raise PartitionViolation(t, "cofactor does not divide the index")
    h = _member_side(system, shape, i, j, u // cof)
    if h is None:
        raise PartitionViolation(t, f"residue missing from both {shape} cosets")
    return system.label_index[ClassId(shape, i, j, h, doubled=doubled)]


def residue_side_of_2(system, shape, i=1, j=1):
    """h with 2 in D_h for an odd-modulus shape ("p", "q" or "pq")."""
    if shape not in ODD_SHAPES:
        raise InvalidParams("2 is a unit only modulo the odd shapes")
    if shape == "p":
        cid_i, cid_j = i, 0
    elif shape == "q":
        cid_i, cid_j = 0, j
    else:
        cid_i, cid_j = i, j
    h = _member_side(system, shape, cid_i, cid_j, 2)
    if h is None:
        raise PartitionViolation(2, f"2 missing from both {shape} cosets")
    return h


def _as_set(arr):
    return set(int(x) for x in arr)


def check_structural_lemmas(system):
    """Exhaustive set-identity checks on the class tables.

    Verifies, as exact set equalities, that prime-power and mixed classes
    are the base classes lifted by multiples of the base modulus (with the
    odd-correction term for doubled moduli), that reducing a doubled-shape
    class modulo its odd part recovers the odd-shape class, and that the
    side of 2 is constant across exponents within each family. Returns a
    list of unraised LemmaViolation records; empty means everything holds.
    """
    out = []
    c = system.constants
    p, q, m, n = c.p, c.q, c.m, c.n

    def check(cid, expected):
        got = _as_set(system.classes[cid])
        if got != expected:
            diff = sorted(got.symmetric_difference(expected))
            out.append(LemmaViolation("class set identity failed",
                                      shape=cid, witness=diff[0]))

    def odd_corrected(values, mod):
        return {v if v % 2 else v + mod for v in values}

    for h in (0, 1):
        base_p = _as_set(system.classes[ClassId("p", 1, 0, h)])
        for i in range(1, m + 1):
            lifted = {x + p * y for x in base_p for y in range(p**(i - 1))}
            if i > 1:
                check(ClassId("p", i, 0, h), lifted)
            check(ClassId("2p", i, 0, h), odd_corrected(lifted, p**i))

        base_q = _as_set(system.classes[ClassId("q", 0, 1, h)])
        for j in range(1, n + 1):
            lifted = {x + q * y for x in base_q for y in range(q**(j - 1))}
            if j > 1:
                check(ClassId("q", 0, j, h), lifted)
            check(ClassId("2q", 0, j, h), odd_corrected(lifted, q**j))

        base_pq = _as_set(system.classes[ClassId("pq", 1, 1, h)])
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                span = p**(i - 1) * q**(j - 1)
                lifted = {x + p * q * y for x in base_pq for y in range(span)}
                if (i, j) != (1, 1):
                    check(ClassId("pq", i, j, h), lifted)
                check(ClassId("2pq", i, j, h),
                      odd_corrected(lifted, p**i * q**j))

        # doubled shape reduced mod its odd part must be the odd shape
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                got = _as_set(system.classes[ClassId("2pq", i, j, h)]
                              % (p**i * q**j))
                if got != _as_set(system.classes[ClassId("pq", i, j, h)]):
                    out.append(LemmaViolation(
                        "doubled class does not reduce onto the odd class",
                        shape=ClassId("2pq", i, j, h), witness=min(got)))

    # side of 2 must not depend on the exponent
    for shape, top in (("p", m), ("q", n)):
        sides = {residue_side_of_2(system, shape, i=i, j=i) for i in range(1, top + 1)}
        if len(sides) > 1:
            out.append(LemmaViolation("side of 2 varies with the exponent",
                                      shape=shape, witness=sorted(sides)))
    sides = {residue_side_of_2(system, "pq", i=i, j=j)
             for i in range(1, m + 1) for j in range(1, n + 1)}
    if len(sides) > 1:
        out.append(LemmaViolation("side of 2 varies with the exponents",
                                  shape="pq", witness=sorted(sides)))
    return out


def check_residue_rules(system):
    """Check the quadratic-residue side of 2 against the mod-8 rules.

    The p and q families place 2 in D_0 exactly when the respective prime
    is congruent to +/-1 mod 8; the pq family follows q. Returns unraised
    LemmaViolation records, empty on success.
    """
    out = []
    c = system.constants
    expect_p = 0 if c.p % 8 in (1, 7) else 1
    expect_q = 0 if c.q % 8 in (1, 7) else 1
    for i in range(1, c.m + 1):
        if residue_side_of_2(system, "p", i=i) != expect_p:
            out.append(LemmaViolation("side of 2 breaks the mod-8 rule",
                                      shape="p", witness=i))
    for j in range(1, c.n + 1):
        if residue_side_of_2(system, "q", j=j) != expect_q:
            out.append(LemmaViolation("side of 2 breaks the mod-8 rule",
                                      shape="q", witness=j))
    for i in range(1, c.m + 1):
        for j in range(1, c.n + 1):
            if residue_side_of_2(system, "pq", i=i, j=j) != expect_q:
                out.append(LemmaViolation(
                    "pq side of 2 does not follow q's mod-8 rule",
                    shape="pq", witness=(i, j)))
    return out
