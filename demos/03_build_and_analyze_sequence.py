#!/usr/bin/env python3
# Generates the period-30 sequence, checks its balance, and measures the
# linear complexity by both methods: Berlekamp-Massey on two periods and
# the gcd of S(x) with x^P - 1.

from cycloseq import gf4
from cycloseq.analysis import analyze_symbols, berlekamp_massey, lc_via_gcd
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
lc_b, conn = berlekamp_massey(np.tile(seq.symbols, 2))
# both routes return gf4 bit planes (hi, lo); digits are for printing.
# Here LC = P = 30, so C(x) is the forced 1 + x^30: analyze_symbols
# therefore asks BM for the length alone and keeps C only below P.
print(f"\ngcd method:        LC = {lc_g}, "
      f"minimal polynomial degree {gf4.poly_deg(gf4.from_planes(*minpoly))}")
print(f"Berlekamp-Massey:  LC = {lc_b}, "
      f"connection C(x) digits {gf4.poly_to_digits(gf4.from_planes(*conn))}")
print("monic C(x) equals the minimal polynomial:",
      gf4.monic_planes(*conn) == minpoly)

report = analyze_symbols(seq.symbols)
print(f"\ncross-checked report: LC {report.lc_bm}, full period reached: "
      f"{report.theorem_holds}")
