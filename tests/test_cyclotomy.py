"""Cyclotomic classes, H-sets, and the partition of Z_{2 p^m q^n}."""

import dataclasses
import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import with_classes
from cycloseq import cyclotomy
from cycloseq.cyclotomy import (BUCKETS, ClassId, CyclotomicSystem,
                                HALF_LABEL, ZERO_LABEL, bucket_codes,
                                bucket_of_label, build_partition,
                                build_system, check_residue_rules,
                                check_structural_lemmas, cofactor_of, h_set,
                                partition_labels, residue_side_of_2)
from cycloseq.errors import (CapExceeded, InvalidParams, LemmaViolation,
                             PartitionViolation)
from cycloseq.numtheory import (PERIOD_CEILING, build_system_constants,
                                euler_phi)

GRID = [(3, 5, 1, 1), (3, 7, 1, 1), (5, 7, 1, 1), (3, 11, 1, 1),
        (3, 5, 2, 1), (3, 5, 1, 2), (3, 7, 2, 1)]
# the largest system of the benchmark's analyze ladder, P = 20 250
LADDER_TOP = (3, 5, 4, 3)


@pytest.fixture(scope="module")
def sys15():
    return build_system(3, 5, 1, 1)


def test_class_tables_example_15(sys15):
    assert list(sys15.classes[ClassId("pq", 1, 1, 0)]) == [1, 4, 11, 14]
    assert list(sys15.classes[ClassId("pq", 1, 1, 1)]) == [2, 7, 8, 13]
    assert list(sys15.classes[ClassId("2pq", 1, 1, 0)]) == [1, 11, 19, 29]
    assert list(sys15.classes[ClassId("2p", 1, 0, 0)]) == [1]
    assert list(sys15.classes[ClassId("2q", 0, 1, 0)]) == [1, 9]
    assert list(sys15.classes[ClassId("p", 1, 0, 0)]) == [1]


def test_classes_partition_units():
    # D_0 and D_1 are disjoint halves of the unit group, every shape
    system = build_system(3, 5, 2, 1)
    p, q, m, n = 3, 5, 2, 1
    mods = {("pq", i, j): p**i * q**j for i in (1, 2) for j in (1,)}
    for (shape, i, j), mod in mods.items():
        d0 = set(int(x) for x in system.classes[ClassId(shape, i, j, 0)])
        d1 = set(int(x) for x in system.classes[ClassId(shape, i, j, 1)])
        units = {x for x in range(1, mod) if np.gcd(x, mod) == 1}
        assert d0 | d1 == units
        assert not d0 & d1
        assert len(d0) == len(d1) == euler_phi(mod) // 2


def test_h_set_scaling(sys15):
    assert list(h_set(sys15, ClassId("2p", 1, 0, 0))) == [5]
    assert list(h_set(sys15, ClassId("2q", 0, 1, 0))) == [3, 27]
    assert list(h_set(sys15, ClassId("p", 1, 0, 0, doubled=True))) == [10]
    assert cofactor_of(sys15.constants, ClassId("pq", 1, 1, 0)) == 1
    assert cofactor_of(sys15.constants, ClassId("p", 1, 0, 0)) == 5


def test_union_sets_example_15(sys15):
    union0 = sorted(set(
        int(x) for cid in sys15.classes
        if cid.shape.startswith("2") and cid.h == 0
        for x in h_set(sys15, cid)))
    assert union0 == [1, 3, 5, 11, 19, 27, 29]


def test_partition_covers_everything():
    for p, q, m, n in GRID:
        system = build_system(p, q, m, n)
        part = system.partition
        assert len(part) == 2 * p**m * q**n
        assert part.min() >= 0
        # recomputing from the stored classes gives the same labels
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


def _lemma(detail, shape, i, j, h, witness):
    cid = ClassId(shape, i, j, h)
    return f"{detail} [shape={cid}, witness={witness}]"


LIFT = "class set identity failed"


@pytest.mark.parametrize("params,swaps,expected", [
    # two families corrupted: the pq family is reported before the p family
    ((3, 5, 2, 1), [("pq", 1, 1), ("p", 1, 0)], [
        _lemma(LIFT, "pq", 1, 1, 0, 1), _lemma(LIFT, "pq", 1, 1, 1, 1),
        _lemma(LIFT, "p", 1, 0, 0, 1), _lemma(LIFT, "p", 1, 0, 1, 1),
        "side of 2 breaks the mod-8 rule [shape=p, witness=1]",
        "pq side of 2 does not follow q's mod-8 rule "
        "[shape=pq, witness=(1, 1)]"]),
    ((3, 5, 1, 2), [("q", 0, 1)], [
        _lemma(LIFT, "q", 0, 1, 0, 1), _lemma(LIFT, "q", 0, 1, 1, 1),
        "side of 2 breaks the mod-8 rule [shape=q, witness=1]"]),
    ((3, 5, 1, 2), [("q", 0, 2)], [
        _lemma(LIFT, "q", 0, 2, 0, 1), _lemma(LIFT, "q", 0, 2, 1, 1),
        "side of 2 breaks the mod-8 rule [shape=q, witness=2]"]),
])
def test_lemmas_report_swapped_class(params, swaps, expected):
    # swap the least element of D_0 with the least of D_1 in each class;
    # every swap here moves 2 to the other side
    system = build_system(*params)
    classes = dict(system.classes)
    for family in swaps:
        d0, d1 = (classes[ClassId(*family, h)] for h in (0, 1))
        classes[ClassId(*family, 0)] = np.sort(np.r_[d1[:1], d0[1:]])
        classes[ClassId(*family, 1)] = np.sort(np.r_[d0[:1], d1[1:]])
    bad = with_classes(system, classes)
    found = check_structural_lemmas(bad) + check_residue_rules(bad)
    assert [str(v) for v in found] == expected
    for shape, i, j in swaps:
        assert (residue_side_of_2(bad, shape, i=i, j=j)
                != residue_side_of_2(system, shape, i=i, j=j))


@pytest.mark.parametrize("params,base", [
    ((3, 5, 2, 2), (1, 0)), ((3, 5, 2, 2), (0, 1)), ((3, 5, 2, 2), (1, 1)),
    ((7, 3, 2, 1), (1, 1)), ((17, 7, 1, 2), (0, 1))])
def test_lemmas_report_a_family_with_its_cosets_swapped(params, base):
    # D_0 and D_1 trade places in every class of one base family: each
    # lift from the base and the side of 2 across exponents still agree,
    # but every class is now the other Legendre class
    system = build_system(*params)
    members = cyclotomy._families(*params[2:])[base]
    swapped = [ClassId(cyclotomy._shape(i, j, two), i, j, h)
               for i, j in members for h in (0, 1) for two in (False, True)]
    classes = {**system.classes, **{
        cid: system.classes[cid._replace(h=1 - cid.h)] for cid in swapped}}
    bad = with_classes(system, classes)
    found = check_structural_lemmas(bad)
    assert len(found) == len(swapped) == (16 if len(members) == 4 else 8)
    assert {v.witness["shape"] for v in found} == set(swapped)
    assert {str(v).split(" [")[0] for v in found} == {LIFT}
    assert len(check_residue_rules(bad)) == len(members)


# --- the lift identities, an independent reference for the Legendre check -

def _as_set(arr):
    return set(int(x) for x in arr)


def _ref_structural_lemmas(system):
    out = []
    c = system.constants
    p, q = c.p, c.q
    families = cyclotomy._families(c.m, c.n)

    def check(cid, expected):
        got = _as_set(system.classes[cid])
        if got != expected:
            diff = sorted(got.symmetric_difference(expected))
            out.append(LemmaViolation("class set identity failed",
                                      shape=cid, witness=diff[0]))

    for h in (0, 1):
        for (bi, bj), members in families.items():
            base_set = _as_set(
                system.classes[ClassId(cyclotomy._shape(bi, bj), bi, bj, h)])
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
            got = _as_set(system.classes[ClassId("2pq", i, j, h)]
                          % (p**i * q**j))
            if got != _as_set(system.classes[ClassId("pq", i, j, h)]):
                out.append(LemmaViolation(
                    "doubled class does not reduce onto the odd class",
                    shape=ClassId("2pq", i, j, h), witness=min(got)))

    for base, members in families.items():
        sides = {residue_side_of_2(system, cyclotomy._shape(i, j), i, j)
                 for i, j in members}
        if len(sides) > 1:
            plural = "s" if base == (1, 1) else ""
            out.append(LemmaViolation(
                f"side of 2 varies with the exponent{plural}",
                shape=cyclotomy._shape(*base), witness=sorted(sides)))
    return out


def _replaced(system, cid, arr):
    return with_classes(system, {**system.classes, cid: arr})


def _corruptions(system):
    # (corrupted class, corrupted system): one class of each doubled shape
    # at the highest exponents, one 2pq coset swap that breaks both lifts
    # and both reductions, and two rewrites that change no set
    c = system.constants
    out = []
    for cid in (ClassId("2p", c.m, 0, 0), ClassId("2pq", c.m, c.n, 1),
                ClassId("2q", 0, c.n, 1)):
        cls = system.classes[cid]
        mod = 2 * c.p**cid.i * c.q**cid.j
        # the largest member moves to the even partner of the least one
        moved = np.sort(np.r_[cls[:-1], (cls[0] + mod // 2) % mod])
        out.append((cid, _replaced(system, cid, moved)))
    d0, d1 = (system.classes[ClassId("2pq", 1, 1, h)] for h in (0, 1))
    swapped = dict(system.classes)
    swapped[ClassId("2pq", 1, 1, 0)] = np.sort(np.r_[d1[-1:], d0[1:]])
    swapped[ClassId("2pq", 1, 1, 1)] = np.sort(np.r_[d0[:1], d1[:-1]])
    out.append((ClassId("2pq", 1, 1, 0),
                with_classes(system, swapped)))
    base, doubled = (system.classes[ClassId(shape, 1, 1, 0)]
                     for shape in ("pq", "2pq"))
    out.append((None, _replaced(system, ClassId("pq", 1, 1, 0),
                                np.sort(np.r_[base, base[:2]]))))
    out.append((None, _replaced(system, ClassId("2pq", 1, 1, 0),
                                doubled[::-1].copy())))
    return out


@pytest.mark.parametrize("params", GRID + [(5, 3, 1, 1), (5, 3, 2, 2)])
def test_lemma_witnesses_match_set_reference(params):
    system = build_system(*params)
    assert check_structural_lemmas(system) == _ref_structural_lemmas(system)
    details = set()
    for cid, bad in _corruptions(system):
        got = check_structural_lemmas(bad)
        want = _ref_structural_lemmas(bad)
        assert bool(got) == bool(want) == (cid is not None), cid
        assert all(type(v.witness["witness"]) is int for v in got)
        if cid is not None:
            # the corrupted class, with the reference's witness for it
            named = [v.witness for v in got if v.witness["shape"] == cid]
            ref = [v.witness for v in want
                   if v.witness["shape"] == cid and str(v).startswith(LIFT)]
            assert named and named == ref, cid
        details.update(str(v).split(" [")[0] for v in got)
    assert details == {LIFT}


def test_residue_side_examples(sys15):
    # 3 = +/-3 and 5 = +/-3 mod 8: 2 sits in D_1 for every odd shape
    assert residue_side_of_2(sys15, "p") == 1
    assert residue_side_of_2(sys15, "q") == 1
    assert residue_side_of_2(sys15, "pq") == 1
    sys21 = build_system(3, 7, 1, 1)
    # 7 = -1 mod 8: the q and pq families flip to D_0
    assert residue_side_of_2(sys21, "p") == 1
    assert residue_side_of_2(sys21, "q") == 0
    assert residue_side_of_2(sys21, "pq") == 0
    with pytest.raises(InvalidParams):
        residue_side_of_2(sys15, "2pq")


@pytest.mark.parametrize("shape, i, j", [("p", 2, 1), ("q", 1, 2),
                                         ("pq", 1, 0)])
def test_residue_side_rejects_a_missing_family(sys15, shape, i, j):
    # (3, 5, 1, 1) has only the p^1, q^1 and p^1 q^1 families
    with pytest.raises(InvalidParams, match=f"no {shape} family"):
        residue_side_of_2(sys15, shape, i=i, j=j)


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
    assert list(sys15.classes[ClassId("2q", 0, 1, 1)]) == [3, 7]


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
    # classes[h] = {g^h g^(2t) y^k mod M}, from the constants alone, with
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
                got = system.classes[ClassId(shape, i, j, h)]
                assert got.tolist() == want, (shape, i, j, h)
                checked += 1
    assert checked == len(system.classes) == 4 * len(c.d_ij)


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


def _painted(system, cid, arr):
    with pytest.raises(PartitionViolation) as info:
        build_partition(_replaced(system, cid, arr))
    return info.value


def test_partition_violation_doubly_labelled(sys15):
    # D_0 of 2pq also takes the least member of D_1: index 7 gets both
    d0, d1 = (sys15.classes[ClassId("2pq", 1, 1, h)] for h in (0, 1))
    exc = _painted(sys15, ClassId("2pq", 1, 1, 0), np.sort(np.r_[d0, d1[:1]]))
    assert exc.index == 7
    assert str(exc) == (
        "index 7: already labeled ClassId(shape='2pq', i=1, j=1, h=0, "
        "doubled=False) while labeling ClassId(shape='2pq', i=1, j=1, "
        "h=1, doubled=False)")


def test_partition_violation_unlabelled(sys15):
    # D_1 of pq loses its largest member 13: index 26 = 2 * 13 is bare
    d1 = sys15.classes[ClassId("pq", 1, 1, 1)]
    exc = _painted(sys15, ClassId("pq", 1, 1, 1), d1[:-1].copy())
    assert exc.index == 26
    assert str(exc) == "index 26: left unlabeled"


def test_partition_violation_residue_in_neither_coset(sys15):
    # D_0 of 2q = {1, 9}: 1 becomes its even partner 6, which is in
    # neither coset modulo 10; 3 * 6 = 18 lands on the doubled q class
    exc = _painted(sys15, ClassId("2q", 0, 1, 0),
                   np.array([6, 9], dtype=np.int64))
    assert exc.index == 18
    assert str(exc) == (
        "index 18: already labeled ClassId(shape='2q', i=0, j=1, h=0, "
        "doubled=False) while labeling ClassId(shape='q', i=0, j=1, h=1, "
        "doubled=True)")


def test_partition_violation_repeated_within_one_label(sys15):
    # D_0 of pq lists 4 and 11 twice: every index is still labeled, but
    # the doubled label holds 2 * 4 = 8 and 2 * 11 = 22 twice each, and
    # the tables no longer tile; the least such index is named
    d0 = sys15.classes[ClassId("pq", 1, 1, 0)]
    exc = _painted(sys15, ClassId("pq", 1, 1, 0), np.r_[d0, d0[2:0:-1]])
    assert exc.index == 8
    assert str(exc) == ("index 8: labeled twice by ClassId(shape='pq', i=1, "
                        "j=1, h=0, doubled=True)")


def _reference_paint(system):
    """Label by label, index by index, in Python: the first index an
    earlier label holds, else the least index no label holds, else the
    least index one label holds twice."""
    c, labels = system.constants, system.labels
    owner, twice = {}, []
    for idx, lab in enumerate(labels):
        positions = ([0] if lab == ZERO_LABEL else [c.half_period]
                     if lab == HALF_LABEL else h_set(system, lab).tolist())
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
    """A small system with at most one class table corrupted: a member of
    the other coset added (an index two labels share), a member listed
    twice, a member overwritten by another, or a member dropped."""
    system = build_system(*draw(st.sampled_from(GRID[:5])))
    cid = draw(st.sampled_from(sorted(system.classes)))
    kind = draw(st.sampled_from(CORRUPTIONS))
    arr = system.classes[cid].copy()
    k = draw(st.integers(0, len(arr) - 1))
    if kind == "shared":
        other = system.classes[cid._replace(h=1 - cid.h)]
        arr = np.r_[arr, other[draw(st.integers(0, len(other) - 1))]]
    elif kind == "repeated":
        arr = np.r_[arr, arr[k]]
    elif kind == "repeated in place":
        assume(len(arr) > 1)
        arr[k] = arr[k - 1]
    elif kind == "dropped":
        arr = np.delete(arr, k)
    return kind, _replaced(system, cid, arr)


@settings(deadline=None, max_examples=300)
@given(corrupted_systems())
def test_one_scatter_paint_matches_sequential_reference(case):
    kind, system = case
    try:
        want = _reference_paint(system)
    except PartitionViolation as exc:
        assert kind != "none"
        with pytest.raises(PartitionViolation) as info:
            build_partition(system)
        assert (info.value.index, str(info.value)) == (exc.index, str(exc))
    else:
        assert kind == "none"
        assert np.array_equal(build_partition(system), want)


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
    sorted, then the partition painted from the class tables."""
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
    labels = partition_labels(c.m, c.n)
    return with_classes(CyclotomicSystem(
        constants=c, labels=labels,
        partition=cyclotomy._paint_partition(c, classes, labels)), classes)


def _assert_same_system(got, want):
    assert got.labels == want.labels
    assert got.partition.dtype == want.partition.dtype
    assert np.array_equal(got.partition, want.partition)
    assert got.classes.keys() == want.classes.keys()
    for cid, arr in want.classes.items():
        assert got.classes[cid].dtype == np.int64, cid
        assert got.classes[cid].tolist() == arr.tolist(), cid


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
    # derived in label order, once: a second read returns the same dict
    assert list(got.classes) == [ClassId(*lab[:4]) for lab in got.labels[2:]]
    assert got.classes is got.classes
    # the Legendre classes, built without g or y, agree as well
    assert check_structural_lemmas(got) == []


def _spy_set_comparison(monkeypatch):
    # the per-class set comparison reads its table through _sorted_set,
    # and runs only on a class that the one-pass accept turned down
    calls, real = [], cyclotomy._sorted_set
    monkeypatch.setattr(cyclotomy, "_sorted_set",
                        lambda arr: calls.append(len(arr)) or real(arr))
    return calls


def test_benchmark_classes_are_accepted_in_one_pass(monkeypatch):
    # the 19 verify-grid systems, then the 16 sweep-mappings systems
    calls = _spy_set_comparison(monkeypatch)
    for params in BENCH_SYSTEMS[:35]:
        assert check_structural_lemmas(build_system(*params)) == [], params
    assert calls == []


def test_a_repeated_entry_is_compared_as_a_set(monkeypatch):
    # one entry twice is no longer strictly increasing, so the accept turns
    # the table down; the set comparison then finds the same set, as before
    system = build_system(3, 5, 2, 1)
    calls = _spy_set_comparison(monkeypatch)
    for cid, cls in system.classes.items():
        calls.clear()
        repeated = np.sort(np.r_[cls, cls[len(cls) // 2]])
        assert check_structural_lemmas(_replaced(system, cid, repeated)) == []
        assert calls == [len(cls) + 1], cid


def test_a_table_off_its_class_by_one_entry_is_named():
    # each table holds its class but for one entry: repeated, missing, or
    # moved one modulus below or above the range, where a side table read
    # at that index would wrap or stop. Every one is turned down and named
    system = build_system(3, 5, 2, 1)
    for cid, cls in system.classes.items():
        # the range of the class: p^i q^j, doubled on the doubled shapes
        M = 3**cid.i * 5**cid.j * (2 if cid.shape.startswith("2") else 1)
        tables = [(np.r_[cls[0] - M, cls[1:]], cls[0] - M),
                  (np.r_[cls[:-1], cls[-1] + M], cls[-1])]
        if len(cls) > 1:
            tables += [(cls[:-1], cls[-1]),
                       (np.sort(np.r_[cls[:-1], cls[0]]), cls[-1])]
        for table, witness in tables:
            found = check_structural_lemmas(_replaced(system, cid, table))
            assert [v.witness for v in found] == [
                {"shape": cid, "witness": int(witness)}], (cid, table)


def test_an_empty_table_is_named():
    # an empty table has no least or greatest entry: it is turned down by
    # its size and named at the least member of its class, 1, a square mod 3
    system = build_system(3, 5, 1, 1)
    cid = ClassId("p", 1, 0, 0)
    found = check_structural_lemmas(
        _replaced(system, cid, np.array([], dtype=np.int64)))
    assert [(type(v), str(v).split(" [")[0], v.witness) for v in found] == [
        (LemmaViolation, "class set identity failed",
         {"shape": cid, "witness": 1})]


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
    # at an index it left bare or, with none bare, on its write count
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
        _assert_same_system(cyclotomy._system_from_constants(constants), want)


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
    cyclotomy.HELD.clear()
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
    cid = ClassId("pq", 1, 1, 0)
    with pytest.raises(TypeError):
        system.classes[cid] = np.arange(4)
    with pytest.raises(ValueError):
        system.classes[cid][0] = 0
    with pytest.raises(ValueError):
        system.classes[cid] += 1
    with pytest.raises(ValueError):
        system.partition[0] = 1
    with pytest.raises(TypeError):
        system.constants.d_ij[1, 1] = 1
    # copies stay writable, and systems built from them work
    classes = dict(system.classes)
    classes[cid] = classes[cid][1:]
    assert check_structural_lemmas(with_classes(system, classes))
    assert build_system(3, 5, 1, 1).classes[cid].tolist() == [1, 4, 11, 14]
