#!/usr/bin/env python3
# Builds the cyclotomic system for (p, q, m, n) = (3, 5, 1, 1) and walks
# through its pieces: the system constants, the classes for each modulus
# shape, the H-sets, the exact partition of Z_30, and the same labels
# recomputed from p and q alone through the cells of Z_15.

from collections import defaultdict

from cycloseq.cyclotomy import (build_partition, build_system, h_set,
                                residue_side_of_2)
from cycloseq.numtheory import smallest_odd_primitive_root_mod_p2


def bucket_of_label(label):
    # zero and half are their own buckets; a doubled-modulus H-set (odd
    # positions) feeds a or b by coset, an odd-modulus one's double c or d
    if label in ("zero", "half"):
        return label
    return ("ab" if label.shape.startswith("2") else "cd")[label.h]


system = build_system(3, 5, 1, 1)
c = system.constants
print(f"p={c.p} q={c.q} m={c.m} n={c.n}: period {system.period}")
print(f"common primitive root g = {c.g}, mixing unit y = {c.y} "
      f"(g1 = {smallest_odd_primitive_root_mod_p2(c.p)}, "
      f"g2 = {smallest_odd_primitive_root_mod_p2(c.q)})")

print("\nclasses by (shape, i, j, h), each label's positions over its "
      "cofactor:")
for cid in sorted(system.labels[2:]):
    cofactor = c.p**(c.m - cid.i) * c.q**(c.n - cid.j) * (1 + cid.doubled)
    print(f"  {cid.shape:>3} i={cid.i} j={cid.j} h={cid.h}: "
          f"{[int(t) // cofactor for t in h_set(system, cid)]}")

print("\nH-sets scale each class by its cofactor; doubled labels also by 2:")
for cid in system.labels[2:6]:
    print(f"  {cid}: {[int(t) for t in h_set(system, cid)]}")

buckets = defaultdict(list)
for t in range(system.period):
    buckets[bucket_of_label(system.labels[int(system.partition[t])])].append(t)
print("\npartition of Z_30 into symbol buckets:")
for name in ("zero", "half", "a", "b", "c", "d"):
    print(f"  {name:>4}: {buckets[name]}")

same = (build_partition(system) == system.partition).all()
print(f"\nbuild_partition, from p and q alone, equals the paint: {same}")

print("\nwhich coset holds 2 (0 = the subgroup <g^2, y>):")
for shape in ("p", "q", "pq"):
    print(f"  {shape:>2}-family: side {residue_side_of_2(system, shape)}")
