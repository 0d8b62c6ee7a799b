"""Cyclotomic classes, H-sets, and the partition of Z_{2 p^m q^n}."""

import dataclasses
import itertools
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import bucket_of_label, class_table, fresh_held
from cycloseq import cyclotomy, gf4
from cycloseq.cyclotomy import (BUCKETS, ClassId, HALF_LABEL, ZERO_LABEL,
                                bucket_codes, build_partition, build_system,
                                check_residue_rules, check_structural_lemmas,
                                h_set, partition_labels)
from cycloseq.errors import (CapExceeded, InvalidParams, LemmaViolation,
                             PartitionViolation)
from cycloseq.numtheory import (PERIOD_CEILING, build_system_constants,
                                euler_phi)

GRID = [(3, 5, 1, 1), (3, 7, 1, 1), (5, 7, 1, 1), (3, 11, 1, 1),
        (3, 5, 2, 1), (3, 5, 1, 2), (3, 7, 2, 1)]
# the largest system of the benchmark's analyze ladder, P = 20 250
LADDER_TOP = (3, 5, 4, 3)
# one pair per (p mod 8, q mod 8) class, as in the sweep benchmark
CLASS_PAIRS = ((17, 41), (17, 3), (17, 5), (17, 7), (7, 17), (7, 3), (7, 5),
               (7, 23), (3, 17), (3, 11), (3, 5), (3, 7), (5, 17), (5, 3),
               (5, 13), (5, 7))


@pytest.fixture(scope="module")
def sys15():
    return build_system(3, 5, 1, 1)


def test_class_tables_example_15(sys15):
    assert list(class_table(sys15, ClassId("pq", 1, 1, 0))) == [1, 4, 11, 14]
    assert list(class_table(sys15, ClassId("pq", 1, 1, 1))) == [2, 7, 8, 13]
    assert list(class_table(sys15, ClassId("2pq", 1, 1, 0))) == [
        1, 11, 19, 29]
    assert list(class_table(sys15, ClassId("2p", 1, 0, 0))) == [1]
    assert list(class_table(sys15, ClassId("2q", 0, 1, 0))) == [1, 9]
    assert list(class_table(sys15, ClassId("p", 1, 0, 0))) == [1]


def test_classes_partition_units():
    # D_0 and D_1 are disjoint halves of the unit group, every shape
    system = build_system(3, 5, 2, 1)
    p, q, m, n = 3, 5, 2, 1
    mods = {("pq", i, j): p**i * q**j for i in (1, 2) for j in (1,)}
    for (shape, i, j), mod in mods.items():
        d0 = set(int(x) for x in class_table(system, ClassId(shape, i, j, 0)))
        d1 = set(int(x) for x in class_table(system, ClassId(shape, i, j, 1)))
        units = {x for x in range(1, mod) if np.gcd(x, mod) == 1}
        assert d0 | d1 == units
        assert not d0 & d1
        assert len(d0) == len(d1) == euler_phi(mod) // 2


def test_h_set_scaling(sys15):
    # each label's positions: its class times the cofactor, 1 for the pq
    # families and 5 for p, and times 2 more for a doubled copy
    assert list(h_set(sys15, ClassId("2p", 1, 0, 0))) == [5]
    assert list(h_set(sys15, ClassId("2q", 0, 1, 0))) == [3, 27]
    assert list(h_set(sys15, ClassId("p", 1, 0, 0, doubled=True))) == [10]
    assert list(h_set(sys15, ClassId("2pq", 1, 1, 0))) == [1, 11, 19, 29]
    assert list(h_set(sys15, ClassId("pq", 1, 1, 0, True))) == [2, 8, 22, 28]
    assert list(h_set(sys15, ZERO_LABEL)) == [0]
    assert list(h_set(sys15, HALF_LABEL)) == [15]


def test_union_sets_example_15(sys15):
    union0 = sorted(set(
        int(x) for lab in sys15.labels[2:]
        if lab.shape.startswith("2") and lab.h == 0
        for x in h_set(sys15, lab)))
    assert union0 == [1, 3, 5, 11, 19, 27, 29]


def test_partition_covers_everything():
    for p, q, m, n in GRID:
        system = build_system(p, q, m, n)
        part = system.partition
        assert len(part) == 2 * p**m * q**n
        assert part.min() >= 0
        # recomputing from the cells gives the same labels
        again = build_partition(system)
        assert np.array_equal(part, again)


def test_bucket_sizes():
    for p, q, m, n in GRID:
        system = build_system(p, q, m, n)
        counts = {"a": 0, "b": 0, "c": 0, "d": 0, "zero": 0, "half": 0}
        label_counts = np.bincount(system.partition,
                                   minlength=len(system.labels))
        for idx, lab in enumerate(system.labels):
            counts[bucket_of_label(lab)] += int(label_counts[idx])
        half = (p**m * q**n - 1) // 2
        assert counts["zero"] == counts["half"] == 1
        assert counts["a"] == counts["b"] == counts["c"] == counts["d"] == half


def test_labels_deterministic():
    labels = partition_labels(1, 1)
    assert labels == (ZERO_LABEL, HALF_LABEL) + tuple(
        lab for shape, i, j in (("pq", 1, 1), ("p", 1, 0), ("q", 0, 1))
        for h in (0, 1)
        for lab in (ClassId("2" + shape, i, j, h),
                    ClassId(shape, i, j, h, doubled=True)))
    assert partition_labels(2, 1) == partition_labels(2, 1)


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2), (4, 3)])
def test_bucket_codes_follow_the_labels(m, n):
    labels, codes = partition_labels(m, n), bucket_codes(m, n)
    assert [BUCKETS[k] for k in codes] == [bucket_of_label(lab)
                                           for lab in labels]
    # after zero and half, each family's four labels feed a, c, b, d
    assert codes.tolist() == [0, 1] + [2, 4, 3, 5] * ((len(labels) - 2) // 4)
    assert not codes.flags.writeable
    # one label table per shape, shared by every system of that shape
    assert build_system(3, 5, m, n).labels is labels
    assert build_system(7, 3, m, n).labels is labels


@pytest.mark.parametrize("params", [(3, 5, 1, 1), (7, 3, 2, 1),
                                    (3, 5, 4, 3)], ids=str)
def test_bucket_cells_tile_the_period(params):
    # a row per cell, in cells order, with its size; half (position N,
    # odd, t mod N = 0) is O = 1 and E = 0 on every cell, a and b lie on
    # odd positions and c and d on even ones. The six buckets tile Z_P,
    # so with zero's E = 1 they add up to the all-ones E and O: 0 on every
    # cell but k = 0, where each is N = 1 mod 2
    system = build_system(*params)
    table = system.bucket_cells
    assert type(table) is tuple and system.bucket_cells is table
    c = system.constants
    keys = list(cyclotomy.cells(c.p, c.q, c.m, c.n))
    assert [row[0] for row in table] == [size for _, size in keys]
    assert sum(row[0] for row in table) == c.half_period
    for (key, _), (_, half, a, b, cc, d) in zip(keys, table):
        assert half == 1 and not (a >> 2 or b >> 2 or cc & 3 or d & 3)
        total = (1 << 2) ^ half ^ a ^ b ^ cc ^ d
        assert total == (0b0101 if key == (c.m, c.n, 0, 0) else 0)


def _cyclotomic(size):
    # Phi_M over GF(2), as an int, by its definition: x^M - 1 divided by
    # Phi_d for every proper divisor d of M
    poly = 1 << size | 1
    for d in range(1, size):
        if size % d == 0:
            _, poly, _, rest = gf4.divmod_planes(0, poly, 0, _cyclotomic(d))
            assert rest == 0
    return poly


@pytest.mark.parametrize("p, q, i, j", [
    (3, 5, 0, 0), (3, 5, 1, 0), (3, 5, 0, 1), (3, 5, 1, 1), (3, 5, 2, 0),
    (5, 3, 0, 2), (3, 7, 1, 1), (3, 5, 2, 1), (7, 3, 1, 2), (5, 7, 1, 1),
    (3, 11, 1, 1)], ids=str)
def test_shift_key_vanishes_exactly_on_multiples_of_phi(p, q, i, j):
    # K(X) = K(X') exactly when Phi_M divides X - X': K is GF(2)-linear,
    # and K(D) = 0 exactly when long division by Phi_M leaves no rest;
    # every D below 2^M where M <= 15, else random D and multiples of Phi_M
    size = p**i * q**j
    u, v = size // p if i else 0, size // q if j else 0
    phi = _cyclotomic(size)
    rng = random.Random(size)
    if size <= 15:
        ds = range(1 << size)
    else:
        ds = [rng.getrandbits(size) for _ in range(300)] + [
            gf4._clmul(phi, rng.getrandbits(size - phi.bit_length() + 1))
            for _ in range(300)]
    for d in ds:
        rest = gf4.divmod_planes(0, d, 0, phi)[3]
        assert (cyclotomy._shift_key(d, size, u, v) == 0) == (rest == 0), d
    for _ in range(200):
        x, y = rng.getrandbits(size), rng.getrandbits(size)
        assert cyclotomy._shift_key(x ^ y, size, u, v) == (
            cyclotomy._shift_key(x, size, u, v)
            ^ cyclotomy._shift_key(y, size, u, v))


@pytest.mark.parametrize("p, q", CLASS_PAIRS, ids=str)
def test_span_coefficients_are_unique_at_every_level(p, q):
    # the 2^k combinations of a level's k basis polynomials have 2^k
    # distinct shift keys, so a key names its coefficients, and their
    # values on the k cells of the level are distinct too
    for i in range(3):
        for j in range(3):
            size = p**i * q**j
            u, v = size // p if i else 0, size // q if j else 0
            spans = cyclotomy._spans(p, q, size, u, v)
            k = 1 + bool(i) + bool(j) + bool(i and j)
            assert len(spans) == len(set(spans.values())) == 2**k
            assert all(len(values) == k for values in spans.values())


SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29)


def test_structural_lemmas_clean():
    # every ordered pair of distinct primes below 30, p > q included
    for p, q in itertools.permutations(SMALL_PRIMES, 2):
        for m, n in ((1, 1), (2, 1), (1, 2)):
            system = build_system(p, q, m, n)
            assert check_structural_lemmas(system) == []
            assert check_residue_rules(system) == []


def test_structural_lemmas_clean_on_the_ladder_top():
    # 19 families and 78 labels, every one painted from one power table
    system = build_system(*LADDER_TOP)
    assert len(system.labels) == 78
    assert check_structural_lemmas(system) == []
    assert check_residue_rules(system) == []


CELLS = "partition differs from its cells' labels"


def _lemma(index, painted, cells):
    # painted and cells as (shape, i, j, h), both doubled copies
    return (f"{CELLS} [index={index}, painted={ClassId(*painted, True)}, "
            f"cells={ClassId(*cells, True)}]")


def _relabelled(system, part):
    return dataclasses.replace(system, partition=part)


@pytest.mark.parametrize("params,swaps,expected", [
    # two families corrupted: the least index differing is named, in the
    # pq family at 2 * 3 * 1, then the side of 2 of each
    ((3, 5, 2, 1), [("pq", 1, 1), ("p", 1, 0)], [
        _lemma(6, ("pq", 1, 1, 1), ("pq", 1, 1, 0)),
        "side of 2 breaks the mod-8 rule [shape=p, witness=1]",
        "pq side of 2 does not follow q's mod-8 rule "
        "[shape=pq, witness=(1, 1)]"]),
    ((3, 5, 1, 2), [("q", 0, 1)], [
        _lemma(30, ("q", 0, 1, 1), ("q", 0, 1, 0)),
        "side of 2 breaks the mod-8 rule [shape=q, witness=1]"]),
    ((3, 5, 1, 2), [("q", 0, 2)], [
        _lemma(6, ("q", 0, 2, 1), ("q", 0, 2, 0)),
        "side of 2 breaks the mod-8 rule [shape=q, witness=2]"]),
])
def test_lemmas_report_swapped_class(params, swaps, expected):
    # the least element of D_0 trades labels with the least of D_1 in
    # each class, at their doubled positions 2 cof x; every swap here
    # moves 2 to the other side
    system = build_system(*params)
    part = system.partition.copy()
    for family in swaps:
        labels = [system.labels.index(ClassId(*family, h, True))
                  for h in (0, 1)]
        least = [np.flatnonzero(part == x)[0] for x in labels]
        part[least] = labels[::-1]
    bad = _relabelled(system, part)
    found = check_structural_lemmas(bad) + check_residue_rules(bad)
    assert [str(v) for v in found] == expected
    for family in swaps:
        d0 = ClassId(*family, 0)
        assert (2 in class_table(bad, d0)) != (2 in class_table(system, d0))


def _members(m, n, base):
    # the families (i, j) of one base, (1, 0), (0, 1) or (1, 1), in order
    return [(i, j) for i, j in cyclotomy._family_indices(m, n)
            if (min(i, 1), min(j, 1)) == base]


@pytest.mark.parametrize("params,base", [
    ((3, 5, 2, 2), (1, 0)), ((3, 5, 2, 2), (0, 1)), ((3, 5, 2, 2), (1, 1)),
    ((7, 3, 2, 1), (1, 1)), ((17, 7, 1, 2), (0, 1))])
def test_lemmas_report_a_family_with_its_cosets_swapped(params, base):
    # D_0 and D_1 trade labels in every class of one base family: each
    # lift from the base and the side of 2 across exponents still agree,
    # but every class is now the other Legendre class. One violation names
    # the least index moved, painted with the twin of its cells' label
    system = build_system(*params)
    members = _members(*params[2:], base)
    swapped = [ClassId(cyclotomy._shape(i, j, two), i, j, h, not two)
               for i, j in members for h in (0, 1) for two in (False, True)]
    part = system.partition.copy()
    for cid in swapped:
        part[system.partition == system.labels.index(cid)] = \
            system.labels.index(cid._replace(h=1 - cid.h))
    found = check_structural_lemmas(_relabelled(system, part))
    t = int(np.flatnonzero(part != system.partition)[0])
    cells = system.labels[system.partition[t]]
    assert cells in swapped
    assert [(str(v).split(" [")[0], v.witness) for v in found] == [
        (CELLS, {"index": t, "painted": cells._replace(h=1 - cells.h),
                 "cells": cells})]
    assert len(check_residue_rules(_relabelled(system, part))) == len(members)


# --- the lift identities, an independent reference for the Legendre check -

def _as_set(arr):
    return set(int(x) for x in arr)


def _side_of_2(system, i, j):
    # 0 when 2 lies in D_0 of the odd-modulus family (i, j), else 1
    return int(2 not in class_table(
        system, ClassId(cyclotomy._shape(i, j), i, j, 0)))


def _ref_structural_lemmas(system):
    out = []
    c = system.constants
    p, q = c.p, c.q
    families = {base: _members(c.m, c.n, base)
                for base in ((1, 0), (0, 1), (1, 1))}

    def check(cid, expected):
        got = _as_set(class_table(system, cid))
        if got != expected:
            diff = sorted(got.symmetric_difference(expected))
            out.append(LemmaViolation("class set identity failed",
                                      shape=cid, witness=diff[0]))

    for h in (0, 1):
        for (bi, bj), members in families.items():
            base_set = _as_set(class_table(
                system, ClassId(cyclotomy._shape(bi, bj), bi, bj, h)))
            step = p**bi * q**bj
            for i, j in members:
                mod = p**i * q**j
                lifted = {x + step * y for x in base_set
                          for y in range(mod // step)}
                if (i, j) != (bi, bj):
                    check(ClassId(cyclotomy._shape(i, j), i, j, h), lifted)
                check(ClassId(cyclotomy._shape(i, j, two=True), i, j, h),
                      {v if v % 2 else v + mod for v in lifted})

        for i, j in families[1, 1]:
            got = _as_set(class_table(system, ClassId("2pq", i, j, h))
                          % (p**i * q**j))
            if got != _as_set(class_table(system, ClassId("pq", i, j, h))):
                out.append(LemmaViolation(
                    "doubled class does not reduce onto the odd class",
                    shape=ClassId("2pq", i, j, h), witness=min(got)))

    for base, members in families.items():
        sides = {_side_of_2(system, i, j) for i, j in members}
        if len(sides) > 1:
            plural = "s" if base == (1, 1) else ""
            out.append(LemmaViolation(
                f"side of 2 varies with the exponent{plural}",
                shape=cyclotomy._shape(*base), witness=sorted(sides)))
    return out


def _corruptions(system):
    # (corrupted label, corrupted system): the greatest position of one
    # label of each doubled shape at the highest exponents relabelled to
    # its twin coset, one 2pq coset swap of the least position of D_0 and
    # the greatest of D_1, and two rewrites that change no label
    c, labels = system.constants, system.labels
    out = []
    for cid in (ClassId("2p", c.m, 0, 0), ClassId("2pq", c.m, c.n, 1),
                ClassId("2q", 0, c.n, 1)):
        x = labels.index(cid)
        part = system.partition.copy()
        part[np.flatnonzero(part == x)[-1]] = labels.index(
            cid._replace(h=1 - cid.h))
        out.append((cid, _relabelled(system, part)))
    d0, d1 = (labels.index(ClassId("2pq", 1, 1, h)) for h in (0, 1))
    part = system.partition.copy()
    t0, t1 = (np.flatnonzero(part == d0)[0], np.flatnonzero(part == d1)[-1])
    part[[t0, t1]] = d1, d0
    out.append((ClassId("2pq", 1, 1, 0), _relabelled(system, part)))
    out.append((None, _relabelled(system, system.partition.copy())))
    out.append((None, _relabelled(system,
                                  system.partition.astype(np.int64))))
    return out


@pytest.mark.parametrize("params", GRID + [(5, 3, 1, 1), (5, 3, 2, 2)])
def test_lemma_witnesses_match_set_reference(params):
    # the lift identities, on the class tables derived from a corrupted
    # partition, flag a class exactly when the label check names an index,
    # and one of the classes they flag holds one of the two labels named
    system = build_system(*params)
    assert check_structural_lemmas(system) == _ref_structural_lemmas(system)
    details = set()
    for cid, bad in _corruptions(system):
        got = check_structural_lemmas(bad)
        want = _ref_structural_lemmas(bad)
        assert bool(got) == bool(want) == (cid is not None), cid
        if cid is not None:
            (w,) = [v.witness for v in got]
            t = int(np.flatnonzero(bad.partition != system.partition)[0])
            assert w == {"index": t,
                         "painted": system.labels[bad.partition[t]],
                         "cells": system.labels[system.partition[t]]}
            assert cid in (w["painted"], w["cells"])
            flagged = {v.witness["shape"] for v in want}
            assert flagged & {ClassId(*w[key][:4])
                              for key in ("painted", "cells")}, cid
        details.update(str(v).split(" [")[0] for v in got)
    assert details == {CELLS}


def test_residue_side_examples(sys15):
    # 3 = +/-3 and 5 = +/-3 mod 8: 2 sits in D_1 for every odd shape
    for cid in (ClassId("p", 1, 0, 1), ClassId("q", 0, 1, 1),
                ClassId("pq", 1, 1, 1)):
        assert 2 in class_table(sys15, cid)
        assert 2 not in class_table(sys15, cid._replace(h=0))
    sys21 = build_system(3, 7, 1, 1)
    # 7 = -1 mod 8: the q and pq families flip to D_0
    assert 2 in class_table(sys21, ClassId("p", 1, 0, 1))
    assert 2 in class_table(sys21, ClassId("q", 0, 1, 0))
    assert 2 in class_table(sys21, ClassId("pq", 1, 1, 0))
    assert check_residue_rules(sys15) == check_residue_rules(sys21) == []
    # the side is read off the paint at 4 cof, the doubled copy of 2: a
    # label there outside the family's two cosets is one record
    part = sys15.partition.copy()
    part[4] = 0
    assert [str(v) for v in check_residue_rules(_relabelled(sys15, part))] \
        == ["pq side of 2 does not follow q's mod-8 rule "
            "[shape=pq, witness=(1, 1)]"]


@pytest.mark.parametrize("params", GRID, ids=str)
def test_residue_side_follows_the_mod_8_rule_on_every_family(params):
    # 2 is a square mod r exactly when r = +/-1 mod 8; r is q on the mixed
    # and q-power families and p on the p-power ones
    p, q, m, n = params
    system = build_system(*params)
    for i, j in cyclotomy._family_indices(m, n):
        r = q if j else p
        assert _side_of_2(system, i, j) == (
            0 if r % 8 in (1, 7) else 1), (i, j)
    assert check_residue_rules(system) == []


def _doubled_two(system, f):
    # the position 4 cof of the doubled copy of 2 in family f, the label of
    # its twin coset, and the record check_residue_rules makes when any
    # label but its own is there
    c = system.constants
    i, j = cyclotomy._family_indices(c.m, c.n)[f]
    t = 4 * c.p**(c.m - i) * c.q**(c.n - j)
    own = system.labels[system.partition[t]]
    mixed = bool(i and j)
    return (t, system.labels.index(own._replace(h=1 - own.h)),
            ("pq side of 2 does not follow q's mod-8 rule" if mixed
             else "side of 2 breaks the mod-8 rule")
            + f" [shape={cyclotomy._shape(i, j)}, "
              f"witness={(i, j) if mixed else i or j}]")


@pytest.mark.parametrize("params", GRID, ids=str)
def test_a_relabelled_two_is_one_record(params):
    # the doubled copy of 2 in one family painted its twin coset, or the
    # label four on from its own, in another family or half: one record
    # naming that family, never a raise
    system = build_system(*params)
    for f in range(len(cyclotomy._family_indices(*params[2:]))):
        t, twin, record = _doubled_two(system, f)
        for label in (twin, (system.partition[t] + 4) % len(system.labels)):
            part = system.partition.copy()
            part[t] = label
            found = check_residue_rules(_relabelled(system, part))
            assert [str(v) for v in found] == [record], (f, label)


def _ref_residue_rules(system):
    """Reference, one family at a time: the side of 2 in family (i, j)
    decoded from its label at 4 cof, None when that label lies outside the
    family's two cosets; then one record per family whose side breaks the
    mod-8 rule, p-power, q-power, then mixed."""
    c = system.constants
    fams = cyclotomy._family_indices(c.m, c.n)
    out = []
    for base in ((1, 0), (0, 1), (1, 1)):
        expect = 0 if (c.q if base[1] else c.p) % 8 in (1, 7) else 1
        for i, j in _members(c.m, c.n, base):
            t = 4 * c.p**(c.m - i) * c.q**(c.n - j) % c.period
            h, odd = divmod(int(system.partition[t])
                            - 4 * fams.index((i, j)) - 3, 2)
            if odd or h not in (0, 1):
                return None
            if h != expect:
                mixed = base == (1, 1)
                out.append(LemmaViolation(
                    "pq side of 2 does not follow q's mod-8 rule" if mixed
                    else "side of 2 breaks the mod-8 rule",
                    shape=cyclotomy._shape(i, j),
                    witness=(i, j) if mixed else i or j))
    return out


def _cosets_swapped(system, f):
    # family f's two cosets trade labels, at odd and at even positions
    part = system.partition.copy()
    for label in (4 * f + 2, 4 * f + 3):
        part[system.partition == label] = label + 2
        part[system.partition == label + 2] = label
    return part


@pytest.mark.parametrize("params", GRID, ids=str)
def test_residue_rules_agree_with_the_per_family_reader(params):
    # every choice of coset for the doubled copy of 2 in every family, and
    # each family's cosets swapped; a label outside a family, which the
    # reference cannot decode, is still one record. Every paint the
    # residue check flags also differs from its cells' labels, so verify
    # runs only that comparison
    system = build_system(*params)
    fams = range(len(cyclotomy._family_indices(*params[2:])))
    twos = [_doubled_two(system, f)[:2] for f in fams]
    paints = []
    for flips in itertools.product((False, True), repeat=len(twos)):
        part = system.partition.copy()
        for (t, twin), flip in zip(twos, flips):
            if flip:
                part[t] = twin
        paints.append(part)
    paints += [_cosets_swapped(system, f) for f in fams]
    flagged = 0
    for k, part in enumerate(paints):
        bad = _relabelled(system, part)
        found = check_residue_rules(bad)
        assert ([str(v) for v in found]
                == [str(v) for v in _ref_residue_rules(bad)]), k
        assert check_structural_lemmas(bad) or not found, k
        flagged += bool(found)
    # all but the unflipped paint
    assert flagged == len(paints) - 1
    part = system.partition.copy()
    part[twos[0][0]] = 0
    bad = _relabelled(system, part)
    assert _ref_residue_rules(bad) is None
    assert len(check_residue_rules(bad)) == 1
    assert check_structural_lemmas(bad)


@st.composite
def relabelled_positions(draw):
    """A small system, a position t of Z_2N (odd, even, 0 or N, or the
    doubled copy of 2 in some family) and a label other than its own."""
    system = build_system(*draw(st.sampled_from(GRID)))
    N = system.half_period
    twos = [_doubled_two(system, f)[0] for f in range(
        len(cyclotomy._family_indices(system.constants.m,
                                      system.constants.n)))]
    t = draw(st.one_of(st.sampled_from((0, N)),
                       st.integers(0, N - 1).map(lambda k: 2 * k + 1),
                       st.integers(0, N - 1).map(lambda k: 2 * k),
                       st.sampled_from(twos)))
    label = draw(st.integers(0, len(system.labels) - 1).filter(
        lambda x: x != system.partition[t]))
    return system, t, label


@settings(deadline=None, max_examples=200)
@given(relabelled_positions())
def test_one_relabelled_position_is_named_at_its_index(case):
    # a paint the residue check flags is among them, and is named too
    system, t, label = case
    part = system.partition.copy()
    part[t] = label
    bad = _relabelled(system, part)
    found = check_structural_lemmas(bad)
    assert [v.witness for v in found] == [
        {"index": t, "painted": system.labels[label],
         "cells": system.labels[system.partition[t]]}]
    assert found or not check_residue_rules(bad)


def test_class_id_validation(sys15):
    with pytest.raises(InvalidParams):
        h_set(sys15, ClassId("pq", 2, 1, 0))
    with pytest.raises(InvalidParams):
        h_set(sys15, ClassId("p", 1, 1, 0))
    with pytest.raises(InvalidParams):
        h_set(sys15, ClassId("2p", 1, 0, 0, doubled=True))
    with pytest.raises(InvalidParams):
        h_set(sys15, ClassId("weird", 1, 1, 0))
    with pytest.raises(InvalidParams):
        h_set(sys15, ClassId("pq", 1, 1, 2))
    with pytest.raises(InvalidParams):
        h_set(sys15, ClassId("q", 1, 1, 0))
    # an odd-modulus class labels positions only through its doubled copy
    with pytest.raises(InvalidParams):
        h_set(sys15, ClassId("pq", 1, 1, 0))
    assert list(h_set(sys15, ClassId("2q", 0, 1, 1))) == [9, 21]


def test_collapsed_class_enumeration_raises(monkeypatch, cold_builds):
    # a g table of period 2 where the constants claim order 4: the two
    # D_0 rows of the first modulus, p q, coincide, and 2N writes leave
    # the odd indices 7, 17, 19, ... unpainted, 17 the odd place of pq's
    # residue 2; the least of them and their doubles mod 30 is 2 * 17 - 30
    # = 4, the even place of that residue
    real = cyclotomy._powers
    monkeypatch.setattr(cyclotomy, "_powers",
                        lambda base, count, mod:
                        np.resize(real(base, min(count, 2), mod), count))
    with pytest.raises(PartitionViolation) as info:
        build_system(3, 5, 1, 1)
    assert info.value.index == 4
    assert str(info.value) == "index 4: left unlabeled"


@pytest.mark.parametrize("params", [(3, 5, 1, 1), (3, 5, 2, 1),
                                    (3, 7, 2, 2)])
def test_each_subgroup_enumerated_once_per_modulus(monkeypatch, cold_builds,
                                                   params):
    # one power table serves every modulus: two _powers calls per build,
    # the powers of g and of y, both modulo 2N
    calls = []
    real = cyclotomy._powers
    monkeypatch.setattr(cyclotomy, "_powers",
                        lambda *a: calls.append(a) or real(*a))
    system = build_system(*params)
    c = system.constants
    assert calls == [(c.g, c.d_ij[c.m, c.n], c.period),
                     (c.y, c.e_ij[c.m, c.n], c.period)]


@pytest.mark.parametrize("params", GRID)
def test_class_tables_match_definition(params):
    # D_h = {g^h g^(2t) y^k mod M}, from the constants alone, with
    # Python ints: 2 * 2F tables for a system with F families
    system = build_system(*params)
    c = system.constants
    checked = 0
    for (i, j), d in c.d_ij.items():
        e = c.e_ij[(i, j)]
        for two in (1, 2):
            mod = two * c.p**i * c.q**j
            shape = ("2" if two == 2 else "") + cyclotomy._shape(i, j)
            for h in (0, 1):
                want = sorted({pow(c.g, h + 2 * t, mod) * pow(c.y, k, mod)
                               % mod for t in range(d // 2)
                               for k in range(e)})
                got = class_table(system, ClassId(shape, i, j, h))
                assert got.tolist() == want, (shape, i, j, h)
                checked += 1
    assert checked == len(system.labels) - 2 == 4 * len(c.d_ij)


def test_powers_are_exact_past_int64():
    # at the period ceiling a product of two residues nears 2^62, past
    # what a float64 holds exactly and still inside int64: every power
    # of a base near -1, near -1/3 or of 3^40 reduced matches pow; the
    # first 64 come from int products, 65 and 200 from the doubling too
    for mod in (2, 30, PERIOD_CEILING - 1, PERIOD_CEILING):
        for base in (mod - 2, mod - 1 - mod // 3, 3**40 % mod):
            for count in (1, 37, 64, 65, 200):
                got = cyclotomy._powers(base, count, mod)
                assert got.dtype == np.int64
                assert got.tolist() == [pow(base, k, mod)
                                        for k in range(count)]


def _named(system, t, label):
    # the one violation of system with position t painted label
    part = system.partition.copy()
    part[t] = label
    (found,) = check_structural_lemmas(_relabelled(system, part))
    return str(found)


def test_partition_violation_doubly_labelled(sys15):
    # index 7, the least member of D_1 of 2pq, painted D_0 of 2pq as well
    assert _named(sys15, 7, sys15.labels.index(ClassId("2pq", 1, 1, 0))) == (
        f"{CELLS} [index=7, painted=ClassId(shape='2pq', i=1, j=1, h=0, "
        f"doubled=False), cells=ClassId(shape='2pq', i=1, j=1, h=1, "
        f"doubled=False)]")


def test_partition_violation_unlabelled(sys15):
    # index 26 = 2 * 13, of D_1 of pq, left at -1: named by its raw value
    assert _named(sys15, 26, -1) == (
        f"{CELLS} [index=26, painted=-1, cells=ClassId(shape='pq', i=1, "
        f"j=1, h=1, doubled=True)]")


def test_partition_violation_residue_in_neither_coset(sys15):
    # index 18 = 3 * 6, a doubled q position, painted D_0 of 2q, a label
    # of odd positions only
    assert _named(sys15, 18, sys15.labels.index(ClassId("2q", 0, 1, 0))) == (
        f"{CELLS} [index=18, painted=ClassId(shape='2q', i=0, j=1, h=0, "
        f"doubled=False), cells=ClassId(shape='q', i=0, j=1, h=1, "
        f"doubled=True)]")


def _class_tables(system):
    # D_h of every class, keyed by ClassId with doubled=False, label order
    return {cid: class_table(system, cid)
            for cid in (ClassId(*lab[:4]) for lab in system.labels[2:])}


def test_partition_violation_repeated_within_one_label(sys15):
    # D_0 of pq listing 4 and 11 twice, painted table by table, labels its
    # doubled positions 8 and 22 twice; a partition holds one label per
    # index, so the paint carries no repeat, and it equals its cells'
    cid = ClassId("pq", 1, 1, 0)
    classes = _class_tables(sys15)
    classes[cid] = np.r_[classes[cid], classes[cid][2:0:-1]]
    with pytest.raises(PartitionViolation) as info:
        _reference_paint(sys15.constants, classes)
    assert str(info.value) == (
        f"index 8: labeled twice by {cid._replace(doubled=True)}")
    assert np.array_equal(build_partition(sys15), sys15.partition)
    assert check_structural_lemmas(sys15) == check_residue_rules(sys15) == []


def _reference_paint(constants, classes):
    """Label by label, index by index, in Python, each class table times
    its label's cofactor: the first index an earlier label holds, else the
    least index no label holds, else the least index one label holds
    twice."""
    c = constants
    labels = partition_labels(c.m, c.n)
    owner, twice = {}, []
    for idx, lab in enumerate(labels):
        cofactor = 1 if lab in (ZERO_LABEL, HALF_LABEL) else (
            c.p**(c.m - lab.i) * c.q**(c.n - lab.j) * (1 + lab.doubled))
        positions = ([0] if lab == ZERO_LABEL else [c.half_period]
                     if lab == HALF_LABEL else
                     [cofactor * int(x) for x in classes[ClassId(*lab[:4])]])
        clash = [t for t in positions if owner.get(t, idx) != idx]
        if clash:
            t = clash[0]
            raise PartitionViolation(t, f"already labeled {labels[owner[t]]} "
                                        f"while labeling {lab}")
        for t in positions:
            if t in owner:
                twice.append(t)
            owner[t] = idx
    missing = [t for t in range(c.period) if t not in owner]
    if missing:
        raise PartitionViolation(missing[0], "left unlabeled")
    if twice:
        t = min(twice)
        raise PartitionViolation(t, f"labeled twice by {labels[owner[t]]}")
    return np.array([owner[t] for t in range(c.period)], dtype=np.int16)


CORRUPTIONS = ("none", "shared", "repeated", "repeated in place", "dropped")


@st.composite
def corrupted_systems(draw):
    """A small system and its class tables, read off its partition, with
    at most one corrupted: a member of the other coset added (an index two
    labels share), a member listed twice, a member overwritten by another,
    or a member dropped."""
    system = build_system(*draw(st.sampled_from(GRID[:5])))
    classes = _class_tables(system)
    cid = draw(st.sampled_from(sorted(classes)))
    kind = draw(st.sampled_from(CORRUPTIONS))
    arr = classes[cid].copy()
    k = draw(st.integers(0, len(arr) - 1))
    if kind == "shared":
        other = classes[cid._replace(h=1 - cid.h)]
        arr = np.r_[arr, other[draw(st.integers(0, len(other) - 1))]]
    elif kind == "repeated":
        arr = np.r_[arr, arr[k]]
    elif kind == "repeated in place":
        assume(len(arr) > 1)
        arr[k] = arr[k - 1]
    elif kind == "dropped":
        arr = np.delete(arr, k)
    classes[cid] = arr
    return kind, system, classes


@settings(deadline=None, max_examples=300)
@given(corrupted_systems())
def test_one_scatter_paint_matches_sequential_reference(case):
    # the sequential reference paints the tables read off the one-scatter
    # paint back into that paint, and raises on every corruption
    kind, system, classes = case
    try:
        want = _reference_paint(system.constants, classes)
    except PartitionViolation:
        assert kind != "none"
    else:
        assert kind == "none"
        assert np.array_equal(system.partition, want)


def _subgroup(mod, square, y, half_order, y_count):
    # D_0 = {square^t * y^k} for t < half_order, k < y_count, sorted
    elems = set()
    x = 1
    for _ in range(half_order):
        v = x
        for _ in range(y_count):
            elems.add(v)
            v = v * y % mod
        x = x * square % mod
    return sorted(elems)


def _reference_system(constants):
    """The builder one modulus at a time, in Python ints: D_0 enumerated
    from g^2 and y, a short D_0 named as collapsed, D_1 = g * D_0, both
    sorted, then the partition painted from the class tables. Returns the
    tables and the partition."""
    c, classes = constants, {}
    for i, j in cyclotomy._family_indices(c.m, c.n):
        d, e = c.d_ij[i, j], c.e_ij[i, j]
        for two in (False, True):
            mod = (2 if two else 1) * c.p**i * c.q**j
            shape = cyclotomy._shape(i, j, two)
            d0 = _subgroup(mod, c.g * c.g % mod, c.y % mod, d // 2, e)
            if len(d0) != d * e // 2:
                raise LemmaViolation("class enumeration collapsed",
                                     cls=ClassId(shape, i, j, 0),
                                     size=len(d0), expected=d * e // 2)
            d1 = sorted(c.g * v % mod for v in d0)
            classes[ClassId(shape, i, j, 0)] = np.array(d0, dtype=np.int64)
            classes[ClassId(shape, i, j, 1)] = np.array(d1, dtype=np.int64)
    return classes, _reference_paint(c, classes)


def _assert_same_system(got, want):
    classes, partition = want
    c = got.constants
    assert got.labels == partition_labels(c.m, c.n)
    assert got.partition.dtype == partition.dtype
    assert np.array_equal(got.partition, partition)
    tables = _class_tables(got)
    assert tables.keys() == classes.keys()
    for cid, arr in classes.items():
        assert tables[cid].dtype == np.int64, cid
        assert tables[cid].tolist() == arr.tolist(), cid


# the benchmark's systems: verify-grid, sweep-mappings, analyze-ladder
BENCH_SYSTEMS = [
    (7, 73, 1, 1), (3, 19, 3, 1), (3, 73, 2, 1), (3, 241, 1, 1),
    (3, 257, 1, 1), (5, 31, 2, 1), (5, 41, 2, 1), (5, 241, 1, 1),
    (31, 41, 1, 1), (5, 257, 1, 1), (19, 73, 1, 1), (7, 241, 1, 1),
    (3, 73, 3, 1), (23, 89, 1, 1), (3, 683, 1, 1), (3, 241, 2, 1),
    (13, 241, 1, 1), (17, 241, 1, 1), (17, 257, 1, 1),
] + [(p, q, 1, 1) for p, q in (
    (17, 41), (17, 3), (17, 5), (17, 7), (7, 17), (7, 3), (7, 5), (7, 23),
    (3, 17), (3, 11), (3, 5), (3, 7), (5, 17), (5, 3), (5, 13), (5, 7))
] + [(5, 7, 2, 2), (11, 13, 1, 2), (13, 17, 1, 2), LADDER_TOP]


@pytest.mark.parametrize("params", BENCH_SYSTEMS + [(7, 11, 3, 2)])
def test_power_table_matches_reference_builder(params):
    constants = build_system_constants(*params)
    want = _reference_system(constants)
    got = cyclotomy._system_from_constants(constants)
    _assert_same_system(got, want)
    # the Legendre classes, built without g or y, agree as well
    assert check_structural_lemmas(got) == []


def test_benchmark_classes_are_accepted_in_one_pass(monkeypatch):
    # the 19 verify-grid systems, then the 16 sweep-mappings systems, pass
    # both checks in one pass over the partition, with no label's
    # positions gathered on their own
    def refuse(system, label):
        raise AssertionError("a label's positions were gathered")

    monkeypatch.setattr(cyclotomy, "h_set", refuse)
    for params in BENCH_SYSTEMS[:35]:
        system = build_system(*params)
        assert check_structural_lemmas(system) == [], params
        assert check_residue_rules(system) == [], params


def test_a_repeated_entry_is_compared_as_a_set():
    # each label scattered again over its own positions, one of them
    # twice, repaints the partition it came from: both checks pass, and
    # h_set names each position once, ascending
    system = build_system(3, 5, 2, 1)
    for x, lab in enumerate(system.labels):
        ts = h_set(system, lab)
        part = system.partition.copy()
        part[np.r_[ts, ts[len(ts) // 2]]] = x
        bad = _relabelled(system, part)
        assert check_structural_lemmas(bad) == check_residue_rules(bad) == []
        assert h_set(bad, lab).tolist() == sorted(set(ts.tolist()))


def test_a_table_off_its_class_by_one_entry_is_named():
    # the least and the greatest position of each label painted its twin
    # coset, or left at -1: every one is named at its index
    system = build_system(3, 5, 2, 1)
    for x, cid in enumerate(system.labels[2:], start=2):
        ts = np.flatnonzero(system.partition == x)
        twin = system.labels.index(cid._replace(h=1 - cid.h))
        for t, label in itertools.product((ts[0], ts[-1]), (twin, -1)):
            part = system.partition.copy()
            part[t] = label
            found = check_structural_lemmas(_relabelled(system, part))
            painted = system.labels[label] if label >= 0 else -1
            assert [v.witness for v in found] == [
                {"index": t, "painted": painted, "cells": cid}], (cid, t)


def test_an_empty_table_is_named():
    # every position of one label painted its twin, so no position holds
    # it: named at its least position, 10 = 2 * 5 * 1 for the doubled
    # copy of D_0 of p in (3, 5, 1, 1)
    system = build_system(3, 5, 1, 1)
    cid = ClassId("p", 1, 0, 0, doubled=True)
    part = system.partition.copy()
    part[part == system.labels.index(cid)] = system.labels.index(
        cid._replace(h=1))
    found = check_structural_lemmas(_relabelled(system, part))
    assert [(type(v), str(v).split(" [")[0], v.witness) for v in found] == [
        (LemmaViolation, CELLS,
         {"index": 10, "painted": cid._replace(h=1), "cells": cid})]


@st.composite
def stray_generators(draw):
    """Valid constants with g or y swapped for another residue mod 2N:
    any residue, or one built from g, y and -1 that keeps some or all of
    their structure."""
    c = build_system_constants(*draw(st.sampled_from(GRID + [(3, 7, 2, 2)])))
    name = draw(st.sampled_from(("g", "y")))
    P = c.period
    near = [pow(c.g, k, P) for k in (2, 3, 5)] + [
        P - c.g, P - c.y, c.g * c.y % P, c.y * c.y % P, c.half_period + 2]
    value = draw(st.one_of(st.integers(0, P - 1), st.sampled_from(near)))
    return dataclasses.replace(c, **{name: value})


@settings(deadline=None, max_examples=200)
@given(stray_generators())
def test_power_table_fails_as_the_reference_builder(constants):
    # the paint raises exactly when the reference does, as PartitionViolation
    # at an index it left bare or, with none bare, on its write count; a
    # paint that succeeds passes the label check exactly when it is the
    # honest system's
    try:
        want = _reference_system(constants)
    except (LemmaViolation, PartitionViolation):
        with pytest.raises(PartitionViolation) as info:
            cyclotomy._system_from_constants(constants)
        bare = info.value.index < constants.period
        assert str(info.value).endswith(
            ": left unlabeled" if bare else f" writes for "
                                            f"{constants.period} indices")
    else:
        got = cyclotomy._system_from_constants(constants)
        _assert_same_system(got, want)
        c = constants
        honest = build_system(c.p, c.q, c.m, c.n)
        assert (check_structural_lemmas(got) == []) == np.array_equal(
            got.partition, honest.partition)


def test_unpainted_witness_is_the_least_bare_odd_index_or_double():
    # g = 4 is even: rows 1 to 3 of its table are even, so their writes
    # land at even positions, which the even half then repaints, and leave
    # the odd indices 7, 9, 13, 17, ... bare; the least of them and their
    # doubles mod 2N is 2 * 17 - 30 = 4, below 7
    c = build_system_constants(3, 5, 1, 1)
    with pytest.raises(PartitionViolation) as info:
        cyclotomy._system_from_constants(dataclasses.replace(c, g=4))
    assert info.value.index == 4
    assert str(info.value) == "index 4: left unlabeled"


def test_overclaimed_order_fails_as_the_reference_builder():
    # d = 4 claimed for the p family of (3, 5, 2, 1), where g has order 2:
    # its rows 2 and 3 repaint rows 0 and 1, so every index is painted,
    # but 2N + 4 writes do not tile Z_2N; the reference names the family
    # collapsed, the paint its write count at index 2N
    c = build_system_constants(3, 5, 2, 1)
    bad = dataclasses.replace(c, d_ij={**c.d_ij, (1, 0): 4})
    with pytest.raises(LemmaViolation) as want:
        _reference_system(bad)
    assert str(want.value) == (
        "class enumeration collapsed [cls=ClassId(shape='p', i=1, j=0, h=0, "
        "doubled=False), size=1, expected=2]")
    with pytest.raises(PartitionViolation) as got:
        cyclotomy._system_from_constants(bad)
    assert got.value.index == c.period == 90
    assert str(got.value) == "index 90: 94 writes for 90 indices"


def test_a_repeated_build_returns_the_held_system(cold_builds):
    system = build_system(3, 5, 1, 1)
    assert build_system(3, 5, 1, 1) is system
    assert build_system(3, 5, 1, 1, cap=30) is system
    # 3.0 == 3, but a cold call refuses it, so a held system must too
    with pytest.raises(TypeError):
        build_system(3.0, 5, 1, 1)


def test_a_held_system_over_cap_raises_as_a_cold_call(cold_builds):
    build_system(*LADDER_TOP)
    with pytest.raises(CapExceeded) as held:
        build_system(*LADDER_TOP, cap=100)
    fresh_held()
    with pytest.raises(CapExceeded) as cold:
        build_system(*LADDER_TOP, cap=100)
    assert str(held.value) == str(cold.value) == (
        "period 2 * 3^4 * 5^3 exceeds cap 100")
    assert not cyclotomy.HELD.systems


def test_a_failed_paint_is_not_held(monkeypatch, cold_builds):
    monkeypatch.setattr(cyclotomy, "_powers",
                        lambda base, count, mod: np.ones(count, np.int64))
    for _ in range(2):
        with pytest.raises(PartitionViolation):
            build_system(3, 5, 1, 1)
    assert not cyclotomy.HELD.systems and cyclotomy.HELD.positions == 0


def test_held_positions_stay_within_the_budget(monkeypatch):
    # periods 30, 42, 70 and 90 in a 200-position budget
    held = cyclotomy._HeldSystems(200)
    monkeypatch.setattr(cyclotomy, "HELD", held)
    assert cyclotomy.HELD_POSITIONS == 2**23

    def keys():
        return [key[:4] for key in held.systems]

    for params in ((3, 5, 1, 1), (3, 7, 1, 1), (5, 7, 1, 1)):
        build_system(*params)
    assert keys() == [(3, 5, 1, 1), (3, 7, 1, 1), (5, 7, 1, 1)]
    # a hit is the most recent; a new system evicts the least recent
    build_system(3, 5, 1, 1)
    build_system(3, 5, 2, 1)
    assert keys() == [(5, 7, 1, 1), (3, 5, 1, 1), (3, 5, 2, 1)]
    assert held.positions == 70 + 30 + 90
    # P = 450 is past the budget: returned, not held, and evicting nothing
    big = build_system(3, 5, 2, 2)
    assert big.period == 450 and build_system(3, 5, 2, 2) is not big
    assert keys() == [(5, 7, 1, 1), (3, 5, 1, 1), (3, 5, 2, 1)]
    for params in GRID:
        build_system(*params)
        assert held.positions == sum(
            s.period for s in held.systems.values()) <= 200


def test_threads_share_the_held_systems(monkeypatch):
    # 8 threads build the grid's 7 systems in a 200-position budget; a
    # lost update would leave the count off the held periods, or evict
    # from an empty memo
    held = cyclotomy._HeldSystems(200)
    monkeypatch.setattr(cyclotomy, "HELD", held)
    want = {params: build_system_constants(*params).period
            for params in GRID}
    failures = []

    def work(seed):
        try:
            for k in range(40):
                params = GRID[(seed + 3 * k) % len(GRID)]
                assert build_system(*params).period == want[params]
        except Exception as exc:  # reported below, by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert held.positions == sum(
        s.period for s in held.systems.values()) <= 200


def test_held_systems_are_read_only():
    system = build_system(3, 5, 1, 1)
    cid = ClassId("pq", 1, 1, 0, True)
    with pytest.raises(ValueError):
        system.partition[0] = 1
    with pytest.raises(ValueError):
        system.partition[h_set(system, cid)] = 0
    with pytest.raises(TypeError):
        system.constants.d_ij[1, 1] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.partition = system.partition.copy()
    # h_set's arrays and copies stay writable, and systems built from the
    # copies work
    positions = h_set(system, cid)
    positions += 1
    part = system.partition.copy()
    part[2] = system.labels.index(ClassId("pq", 1, 1, 1, True))
    assert check_structural_lemmas(_relabelled(system, part))
    assert h_set(build_system(3, 5, 1, 1), cid).tolist() == [2, 8, 22, 28]
    assert build_system(3, 5, 1, 1).partition[2] == system.labels.index(cid)
