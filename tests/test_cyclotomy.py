"""Cyclotomic classes, H-sets, and the partition of Z_{2 p^m q^n}."""

import numpy as np
import pytest

from cycloseq import cyclotomy
from cycloseq.cyclotomy import (ClassId, HALF_LABEL, ZERO_LABEL,
                                bucket_of_label, build_partition,
                                build_system, check_residue_rules,
                                check_structural_lemmas, classify_index,
                                cofactor_of, h_set, partition_labels,
                                residue_side_of_2)
from cycloseq.errors import InvalidParams, LemmaViolation
from cycloseq.numtheory import euler_phi

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


@pytest.mark.parametrize("p,q,m,n", GRID[:5])
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
    assert labels[0] == ZERO_LABEL and labels[1] == HALF_LABEL
    assert ClassId("2pq", 1, 1, 0) in labels
    assert ClassId("pq", 1, 1, 0, doubled=True) in labels
    assert partition_labels(2, 1) == partition_labels(2, 1)


def test_structural_lemmas_clean():
    for p, q, m, n in GRID:
        system = build_system(p, q, m, n)
        assert check_structural_lemmas(system) == []
        assert check_residue_rules(system) == []


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


def test_class_id_validation(sys15):
    with pytest.raises(InvalidParams):
        h_set(sys15, ClassId("pq", 2, 1, 0))
    with pytest.raises(InvalidParams):
        h_set(sys15, ClassId("p", 1, 1, 0))
    with pytest.raises(InvalidParams):
        h_set(sys15, ClassId("2p", 1, 0, 0, doubled=True))
    with pytest.raises(InvalidParams):
        h_set(sys15, ClassId("weird", 1, 1, 0))


def test_collapsed_class_enumeration_raises(monkeypatch, sys15):
    real = cyclotomy._coset
    monkeypatch.setattr(cyclotomy, "_coset", lambda *a: real(*a)[1:])
    with pytest.raises(LemmaViolation, match="class enumeration collapsed"):
        cyclotomy.build_class_pq(sys15.constants, 1, 1, 0)
    with pytest.raises(LemmaViolation, match="class enumeration collapsed"):
        cyclotomy.build_class_prime_power(sys15.constants, "q", 1, True, 1)
