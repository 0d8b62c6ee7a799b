"""Cyclotomic classes, H-sets, and the partition of Z_{2 p^m q^n}."""

import dataclasses

import numpy as np
import pytest

from cycloseq import cyclotomy
from cycloseq.cyclotomy import (ClassId, HALF_LABEL, ZERO_LABEL,
                                bucket_of_label, build_partition,
                                build_system, check_residue_rules,
                                check_structural_lemmas, classify_index,
                                cofactor_of, h_set, partition_labels,
                                residue_side_of_2)
from cycloseq.errors import InvalidParams, LemmaViolation, PartitionViolation
from cycloseq.numtheory import SystemConstants, euler_phi, is_prime

GRID = [(3, 5, 1, 1), (3, 7, 1, 1), (5, 7, 1, 1), (3, 11, 1, 1),
        (3, 5, 2, 1), (3, 5, 1, 2), (3, 7, 2, 1)]


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


@pytest.mark.parametrize("p,q,m,n", GRID[:5] + [
    (7, 3, 2, 1), (17, 3, 1, 1), (7, 5, 1, 2)])
def test_classify_index_matches_partition(p, q, m, n):
    system = build_system(p, q, m, n)
    for t in range(system.period):
        assert classify_index(system, t) == int(system.partition[t]), t
    with pytest.raises(InvalidParams):
        classify_index(system, system.period)
    with pytest.raises(InvalidParams):
        classify_index(system, -1)


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


def test_structural_lemmas_clean():
    for p, q, m, n in GRID:
        system = build_system(p, q, m, n)
        assert check_structural_lemmas(system) == []
        assert check_residue_rules(system) == []


def _lemma(detail, shape, i, j, h, witness):
    cid = ClassId(shape, i, j, h)
    return f"{detail} [shape={cid}, witness={witness}]"


LIFT = "class set identity failed"
REDUCE = "doubled class does not reduce onto the odd class"


@pytest.mark.parametrize("params,swaps,expected", [
    # two families corrupted: the p family is reported before the pq family
    ((3, 5, 2, 1), [("pq", 1, 1), ("p", 1, 0)], [
        _lemma(LIFT, "2p", 1, 0, 0, 1), _lemma(LIFT, "p", 2, 0, 0, 1),
        _lemma(LIFT, "2p", 2, 0, 0, 1),
        _lemma(LIFT, "2pq", 1, 1, 0, 1), _lemma(LIFT, "pq", 2, 1, 0, 1),
        _lemma(LIFT, "2pq", 2, 1, 0, 1), _lemma(REDUCE, "2pq", 1, 1, 0, 1),
        _lemma(LIFT, "2p", 1, 0, 1, 1), _lemma(LIFT, "p", 2, 0, 1, 1),
        _lemma(LIFT, "2p", 2, 0, 1, 1),
        _lemma(LIFT, "2pq", 1, 1, 1, 1), _lemma(LIFT, "pq", 2, 1, 1, 1),
        _lemma(LIFT, "2pq", 2, 1, 1, 1), _lemma(REDUCE, "2pq", 1, 1, 1, 2),
        "side of 2 varies with the exponent [shape=p, witness=[0, 1]]",
        "side of 2 varies with the exponents [shape=pq, witness=[0, 1]]",
        "side of 2 breaks the mod-8 rule [shape=p, witness=1]",
        "pq side of 2 does not follow q's mod-8 rule "
        "[shape=pq, witness=(1, 1)]"]),
    ((3, 5, 1, 2), [("q", 0, 1)], [
        _lemma(LIFT, "2q", 0, 1, 0, 1), _lemma(LIFT, "q", 0, 2, 0, 1),
        _lemma(LIFT, "2q", 0, 2, 0, 1), _lemma(LIFT, "2q", 0, 1, 1, 1),
        _lemma(LIFT, "q", 0, 2, 1, 1), _lemma(LIFT, "2q", 0, 2, 1, 1),
        "side of 2 varies with the exponent [shape=q, witness=[0, 1]]",
        "side of 2 breaks the mod-8 rule [shape=q, witness=1]"]),
    ((3, 5, 1, 2), [("q", 0, 2)], [
        _lemma(LIFT, "q", 0, 2, 0, 1), _lemma(LIFT, "q", 0, 2, 1, 1),
        "side of 2 varies with the exponent [shape=q, witness=[0, 1]]",
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
    bad = dataclasses.replace(system, classes=classes)
    found = check_structural_lemmas(bad) + check_residue_rules(bad)
    assert [str(v) for v in found] == expected
    for shape, i, j in swaps:
        assert (residue_side_of_2(bad, shape, i=i, j=j)
                != residue_side_of_2(system, shape, i=i, j=j))


# --- the set-based lemma check that the array comparisons replaced ---------

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
    return dataclasses.replace(system, classes={**system.classes, cid: arr})


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
                dataclasses.replace(system, classes=swapped)))
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
        assert [str(v) for v in got] == [str(v) for v in want], cid
        assert [v.witness for v in got] == [v.witness for v in want], cid
        assert all(type(v.witness["witness"]) in (int, list) for v in got)
        if cid is None:
            assert got == []
        else:
            assert cid in [v.witness["shape"] for v in got]
        details.update(str(v).split(" [")[0] for v in got)
    assert details == {LIFT, REDUCE}


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


def test_collapsed_class_enumeration_raises(monkeypatch):
    real = cyclotomy._subgroup
    monkeypatch.setattr(cyclotomy, "_subgroup", lambda *a: real(*a)[1:])
    with pytest.raises(LemmaViolation, match="class enumeration collapsed"):
        build_system(3, 5, 1, 1)


@pytest.mark.parametrize("params", [(3, 5, 1, 1), (3, 5, 2, 1),
                                    (3, 7, 2, 2)])
def test_each_subgroup_enumerated_once_per_modulus(monkeypatch, params):
    # D_1 = g * D_0: two enumerations per family (odd and doubled modulus)
    calls = []
    real = cyclotomy._subgroup
    monkeypatch.setattr(cyclotomy, "_subgroup",
                        lambda *a: calls.append(a[0]) or real(*a))
    build_system(*params)
    m, n = params[2:]
    families = m * n + m + n
    assert len(calls) == 2 * families
    assert len(set(calls)) == 2 * families


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


def test_class_pair_is_exact_past_int64():
    # a modulus P > 2^32, where g * D_0 would overflow int64 products:
    # D_0 = {1, -1} and D_1 = {g, -g} for g of order 4
    P = next(v for v in range(2**32 + 1, 2**32 + 10**4, 4) if is_prime(v))
    a = next(a for a in range(2, P) if pow(a, (P - 1) // 2, P) == P - 1)
    g = pow(a, (P - 1) // 4, P)
    assert (g * (P - 1)) >= 2**63
    constants = SystemConstants(p=P, q=3, m=1, n=1, g1=g, g2=1, g=g, y=1,
                                e_ij={(1, 0): 1}, d_ij={(1, 0): 4})
    d0, d1 = cyclotomy._class_pair(constants, 1, 0, False)
    assert d0.tolist() == [1, P - 1]
    assert d1.tolist() == sorted([g, P - g])


def _painted(system, cid, arr):
    bad = _replaced(system, cid, arr)
    with pytest.raises(PartitionViolation) as info:
        build_partition(bad)
    return bad, info.value


def test_partition_violation_doubly_labelled(sys15):
    # D_0 of 2pq also takes the least member of D_1: index 7 gets both
    d0, d1 = (sys15.classes[ClassId("2pq", 1, 1, h)] for h in (0, 1))
    bad, exc = _painted(sys15, ClassId("2pq", 1, 1, 0),
                        np.sort(np.r_[d0, d1[:1]]))
    assert exc.index == 7
    assert str(exc) == (
        "index 7: already labeled ClassId(shape='2pq', i=1, j=1, h=0, "
        "doubled=False) while labeling ClassId(shape='2pq', i=1, j=1, "
        "h=1, doubled=False)")
    # classify_index reads the first coset that holds the residue
    assert bad.labels[classify_index(bad, 7)] == ClassId("2pq", 1, 1, 0)


def test_partition_violation_unlabelled(sys15):
    # D_1 of pq loses its largest member 13: index 26 = 2 * 13 is bare
    d1 = sys15.classes[ClassId("pq", 1, 1, 1)]
    bad, exc = _painted(sys15, ClassId("pq", 1, 1, 1), d1[:-1].copy())
    assert exc.index == 26
    assert str(exc) == "index 26: left unlabeled"
    with pytest.raises(PartitionViolation,
                       match="residue missing from both pq cosets") as info:
        classify_index(bad, 26)
    assert info.value.index == 26


def test_partition_violation_residue_in_neither_coset(sys15):
    # D_0 of 2q = {1, 9}: 1 becomes its even partner 6, which is in
    # neither coset modulo 10; 3 * 6 = 18 lands on the doubled q class
    bad, exc = _painted(sys15, ClassId("2q", 0, 1, 0),
                        np.array([6, 9], dtype=np.int64))
    assert exc.index == 18
    assert str(exc) == (
        "index 18: already labeled ClassId(shape='2q', i=0, j=1, h=0, "
        "doubled=False) while labeling ClassId(shape='q', i=0, j=1, h=1, "
        "doubled=True)")
    # index 3 = 3 * 1 lost its label, and 1 is now in neither 2q coset
    with pytest.raises(PartitionViolation,
                       match="residue missing from both 2q cosets") as info:
        classify_index(bad, 3)
    assert info.value.index == 3
