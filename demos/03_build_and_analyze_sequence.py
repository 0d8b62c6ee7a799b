#!/usr/bin/env python3
# Generates the period-30 sequence, checks its balance, and measures the
# linear complexity by both methods: Berlekamp-Massey on two periods and
# the gcd of S(x) with x^P - 1.

from cycloseq import gf4
from cycloseq.analysis import (analyze_symbols, berlekamp_massey,
                               generates, lc_via_gcd)
from cycloseq.cyclotomy import build_system
from cycloseq.sequence import (DEFAULT_MAPPING, balance_profile,
                               build_sequence)

import numpy as np

system = build_system(3, 5, 1, 1)
seq = build_sequence(system, DEFAULT_MAPPING)
digits = "".join(str(int(v)) for v in seq.symbols)
print(f"mapping (a,b,c,d,e) = {DEFAULT_MAPPING.as_tuple()}")
print(f"sequence ({seq.period} symbols): {digits}")

prof = balance_profile(system, seq)
print(f"bucket counts: {prof.bucket_counts} "
      f"(expected {prof.expected_bucket_size} per letter bucket)")
print(f"symbol counts: {prof.symbol_counts}")

lc_g, minpoly = lc_via_gcd(seq.symbols)
lc_b = berlekamp_massey(np.tile(seq.symbols, 2))
# the gcd route returns gf4 bit planes (hi, lo); digits are for printing.
# BM gives the length alone; at that length only the minimal polynomial
# generates the first 2 LC symbols, and with them the whole sequence.
print(f"\ngcd method:        LC = {lc_g}, "
      f"minimal polynomial degree {gf4.poly_deg(gf4.from_planes(*minpoly))}")
print(f"Berlekamp-Massey:  LC = {lc_b}")
print("the minimal polynomial generates the sequence:",
      generates(seq.symbols, lc_g, minpoly))

report = analyze_symbols(seq.symbols)
print(f"\ncross-checked report: LC {report.lc_bm}, full period reached: "
      f"{report.theorem_holds}")
