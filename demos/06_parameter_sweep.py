#!/usr/bin/env python3
# Sweeps the full grid used by the acceptance suite and tabulates the
# measured complexity next to the 2 p^m q^n target. Every row uses three
# mappings that pass the mod-8 rule and that cells.predict_lc, the closed
# form, says reach the full period.

import itertools
import time

from cycloseq.analysis import verify_theorem
from cycloseq.cells import predict_lc
from cycloseq.cyclotomy import build_system
from cycloseq.sequence import Mapping, validate_mapping

PAIRS = ((3, 5), (3, 7), (5, 7), (3, 11), (5, 11), (7, 11))
EXPONENTS = ((1, 1), (2, 1), (1, 2))
candidates = [Mapping(*perm, e) for e in (1, 2, 3)
              for perm in itertools.permutations(range(4))]

t0 = time.monotonic()
print(f"{'p':>3} {'q':>3} {'m':>2} {'n':>2} {'period':>7} "
      f"{'mappings':>22} {'LC':>6} ok")
for p, q in PAIRS:
    for m, n in EXPONENTS:
        system = build_system(p, q, m, n)
        lcs = []
        # the first three, e ascending, then the permutations of (a, b, c, d)
        maps = [mp for mp in candidates if not validate_mapping(p, mp)
                and predict_lc(system.constants, mp) == system.period][:3]
        for mapping in maps:
            lcs.append(verify_theorem(system, mapping).lc_gcd)
        ok = all(lc == system.period for lc in lcs)
        shown = " ".join("".join(map(str, mp.as_tuple())) for mp in maps)
        print(f"{p:>3} {q:>3} {m:>2} {n:>2} {system.period:>7} "
              f"{shown:>22} {lcs[0]:>6} {'yes' if ok else 'NO'}")
print(f"elapsed {time.monotonic() - t0:.1f}s")
