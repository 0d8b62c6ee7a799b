#!/usr/bin/env python3
# Generates the period-30 sequence, checks its balance, and measures the
# linear complexity by both methods: Berlekamp-Massey on two periods and
# the gcd of S(x) with x^P - 1.

from cycloseq import gf4
from cycloseq.analysis import (analyze_symbols, berlekamp_massey,
                               generates, lc_via_gcd, minimal_planes)
from cycloseq.cyclotomy import BUCKETS, bucket_codes, build_system
from cycloseq.sequence import DEFAULT_MAPPING, build_sequence

import numpy as np

system = build_system(3, 5, 1, 1)
seq = build_sequence(system, DEFAULT_MAPPING)
digits = "".join(str(int(v)) for v in seq.symbols)
print(f"mapping (a,b,c,d,e) = {DEFAULT_MAPPING.as_tuple()}")
print(f"sequence ({seq.period} symbols): {digits}")

# each letter bucket covers (N - 1) / 2 positions, N = p^m q^n
c = system.constants
buckets = np.bincount(bucket_codes(c.m, c.n)[system.partition],
                      minlength=len(BUCKETS))
print(f"bucket counts: {dict(zip(BUCKETS, buckets.tolist()))} "
      f"(expected {(system.half_period - 1) // 2} per letter bucket)")
symbols = np.bincount(seq.symbols, minlength=4)
print(f"symbol counts: {dict(enumerate(symbols.tolist()))}")

lc_g, factors = lc_via_gcd(seq.symbols)
minpoly = minimal_planes(seq.symbols, factors)
lc_b = berlekamp_massey(np.tile(seq.symbols, 2))
# the gcd route gives LC from the degrees of its gcd factors, and the
# minimal polynomial (x^P - 1) / their product as gf4 bit planes (hi, lo);
# digits are for printing. BM gives the length alone; at that length only
# the minimal polynomial generates the first 2 LC symbols, and with them
# the whole sequence.
print(f"\ngcd method:        LC = {lc_g}, "
      f"minimal polynomial degree {len(gf4.from_planes(*minpoly)) - 1}")
print(f"Berlekamp-Massey:  LC = {lc_b}")
print("the minimal polynomial generates the sequence:",
      generates(seq.symbols, lc_g, minpoly))

report = analyze_symbols(seq.symbols)
print(f"\ncross-checked report: LC {report.lc_bm}, full period reached: "
      f"{report.theorem_holds}")
