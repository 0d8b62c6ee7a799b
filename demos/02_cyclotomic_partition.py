#!/usr/bin/env python3
# Builds the cyclotomic system for (p, q, m, n) = (3, 5, 1, 1) and walks
# through its pieces: the system constants, the classes for each modulus
# shape, the H-sets, the exact partition of Z_30, and the same labels
# recomputed from p and q alone through the cells of Z_15.

from collections import defaultdict

from cycloseq.cyclotomy import build_partition, build_system, h_set
from cycloseq.numtheory import smallest_odd_primitive_root_mod_p2


def bucket_of_label(label):
    # zero and half are their own buckets; a doubled-modulus H-set (odd
    # positions) feeds a or b by coset, an odd-modulus one's double c or d
    if label in ("zero", "half"):
        return label
    return ("ab" if label.shape.startswith("2") else "cd")[label.h]


system = build_system(3, 5, 1, 1)
c = system.constants


def class_table(cid):
    # the positions of a label over its cofactor p^(m-i) q^(n-j), times 2
    # for the doubled copy of an odd-modulus class
    cofactor = c.p**(c.m - cid.i) * c.q**(c.n - cid.j) * (1 + cid.doubled)
    return [int(t) // cofactor for t in h_set(system, cid)]


print(f"p={c.p} q={c.q} m={c.m} n={c.n}: period {system.period}")
print(f"common primitive root g = {c.g}, mixing unit y = {c.y} "
      f"(g1 = {smallest_odd_primitive_root_mod_p2(c.p)}, "
      f"g2 = {smallest_odd_primitive_root_mod_p2(c.q)})")

print("\nclasses by (shape, i, j, h), each label's positions over its "
      "cofactor:")
for cid in sorted(system.labels[2:]):
    print(f"  {cid.shape:>3} i={cid.i} j={cid.j} h={cid.h}: "
          f"{class_table(cid)}")

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

print("\nwhich coset holds 2 (0 = the subgroup <g^2, y>), read off the "
      "class tables:")
for cid in sorted(system.labels[2:]):
    if cid.doubled and 2 in class_table(cid):
        print(f"  {cid.shape:>2}-family i={cid.i} j={cid.j}: side {cid.h}")
