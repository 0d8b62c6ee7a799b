"""Acceptance gate: one verdict line per criterion.

Each test prints "criterion N: PASS/FAIL - detail" on the real stdout so
the verdicts survive pytest's capture, then asserts. Frozen oracle values
are inlined; every complexity figure was measured by both methods.
"""

import random
import sys
import time

import numpy as np

from conftest import ALL_MAPPINGS, bucket_of_label, class_table
from cycloseq import gf4
from cycloseq.analysis import (analyze_degenerate, analyze_symbols,
                               verify_theorem)
from cycloseq.cells import predict_lc
from cycloseq.cyclotomy import (BUCKETS, ClassId, bucket_codes,
                                build_partition, build_system,
                                check_residue_rules, check_structural_lemmas)
from cycloseq.extfield import (build_extension, verify_case_table,
                               verify_char_sum_tables)
from cycloseq.numtheory import is_prime
from cycloseq.sequence import (DEFAULT_MAPPING, Mapping, build_sequence,
                               validate_mapping)

GRID_PAIRS = ((3, 5), (3, 7), (5, 7), (3, 11), (5, 11), (7, 11))
GRID_EXPONENTS = ((1, 1), (2, 1), (1, 2))

# index sets of the four symbol buckets over one period, (3,5,1,1)
EXAMPLE_1_SETS = {
    "a": [1, 3, 5, 11, 19, 27, 29],
    "b": [7, 9, 13, 17, 21, 23, 25],
    "c": [2, 6, 8, 10, 22, 24, 28],
    "d": [4, 12, 14, 16, 18, 20, 26],
}

# same for (3,7,1,1)
EXAMPLE_2_SETS = {
    "a": [1, 3, 7, 11, 23, 25, 27, 29, 33, 37],
    "b": [5, 9, 13, 15, 17, 19, 31, 35, 39, 41],
    "c": [2, 4, 6, 8, 12, 14, 16, 22, 24, 32],
    "d": [10, 18, 20, 26, 28, 30, 34, 36, 38, 40],
}


def _verdict(log, num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    log.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _bucket_index_sets(system):
    out = {k: [] for k in ("a", "b", "c", "d")}
    for t in range(system.period):
        bucket = bucket_of_label(system.labels[int(system.partition[t])])
        if bucket in out:
            out[bucket].append(t)
    return out


def _example_reproduction(log, num, p, q, frozen_sets, frozen_lc, budget=1.0):
    t0 = time.monotonic()
    system = build_system(p, q, 1, 1)
    sets_ok = _bucket_index_sets(system) == frozen_sets
    seq = build_sequence(system)
    half = (0, 1 << system.half_period | 1)
    gcd_one = gf4.gcd_planes(*half, *gf4.to_planes(seq.symbols)) == (0, 1)
    report = analyze_symbols(seq.symbols)
    lc_ok = report.lc_bm == report.lc_gcd == frozen_lc
    elapsed = time.monotonic() - t0
    ok = sets_ok and gcd_one and lc_ok and elapsed < budget
    _verdict(log, num, ok,
             f"({p},{q},1,1) bucket sets {'match' if sets_ok else 'DIFFER'}, "
             f"gcd(x^{system.half_period}-1, S) "
             f"{'= 1' if gcd_one else 'NONTRIVIAL'}, "
             f"LC {report.lc_bm}/{report.lc_gcd} vs {frozen_lc} "
             f"({elapsed:.2f}s)")


def test_criterion_1_example_1(acceptance_log):
    _example_reproduction(acceptance_log, 1, 3, 5, EXAMPLE_1_SETS, 30)


def test_criterion_2_example_2(acceptance_log):
    _example_reproduction(acceptance_log, 2, 3, 7, EXAMPLE_2_SETS, 42)


def test_criterion_3_theorem_sweep(acceptance_log):
    t0 = time.monotonic()
    rows = failures = 0
    for p, q in GRID_PAIRS:
        for m, n in GRID_EXPONENTS:
            period = 2 * p**m * q**n
            if period > 10**5:
                continue
            system = build_system(p, q, m, n)
            # the first three valid mappings predict_lc calls full: e
            # ascending, then the permutations of (a, b, c, d)
            mappings = [mp for mp in sorted(ALL_MAPPINGS, key=lambda mp: mp.e)
                        if not validate_mapping(p, mp)
                        and predict_lc(system.constants, mp) == period][:3]
            assert len(set(mp.as_tuple() for mp in mappings)) == 3
            for mp in mappings:
                report = verify_theorem(system, mp)
                rows += 1
                if not (report.methods_agree
                        and report.lc_bm == report.lc_gcd == period):
                    failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and rows == 54 and elapsed < 300
    _verdict(acceptance_log, 3, ok,
             f"{rows} (system, mapping) rows, {failures} off "
             f"LC = 2p^m q^n, both methods ({elapsed:.1f}s)")


def test_criterion_4_oracle_equivalence(acceptance_log):
    rng = random.Random(20260819)
    mismatches = 0
    for _ in range(200):
        half = rng.randrange(3, 500, 2)
        symbols = np.array([rng.randrange(4) for _ in range(2 * half)],
                           dtype=np.uint8)
        report = analyze_symbols(symbols)
        if report.lc_bm != report.lc_gcd:
            mismatches += 1
    _verdict(acceptance_log, 4, mismatches == 0,
             f"200 random periods 2N, N odd in [3,499]: "
             f"{mismatches} BM/gcd mismatches")


def test_criterion_5_degenerate_lower_bound(acceptance_log):
    # frozen measurements; the e = b member at (3,5) reaches the full
    # period, so only the lower bound is asserted there (the strict upper
    # clause is refuted by measurement and the reduction flag records it)
    rows = (
        (3, 5, 3, 30, 12, False),
        (3, 5, 2, 16, 12, True),
        (3, 7, 3, 33, 16, True),
        (3, 7, 2, 28, 16, True),
    )
    ok = True
    details = []
    for p, q, e, frozen_lc, bound, reduced in rows:
        system = build_system(p, q, 1, 1)
        report = analyze_degenerate(system, Mapping(2, 3, 1, 0, e))
        good = (report.lc == frozen_lc
                and report.lower_bound == bound
                and report.lc >= bound
                and (report.lc < system.period) == reduced)
        ok = ok and good
        details.append(f"({p},{q})e={e}:lc={report.lc}"
                       f"{'' if good else '!'}")
    _verdict(acceptance_log, 5, ok,
             "bounds 12/16 hold on all four members [" + " ".join(details)
             + "]; strict reduction on three, (3,5)e=b measured at the "
               "full 30 (constraint over-restrictive there)")


def test_criterion_6_residue_lemmas(acceptance_log):
    # prime-power side of 2: Euler index parity mod p^2, the mod-8 rule,
    # and a literal squares-set enumeration must agree for every odd prime
    bad_p = []
    for p in (n for n in range(3, 1000) if is_prime(n)):
        euler = pow(2, p * (p - 1) // 2, p * p) == 1
        rule = p % 8 in (1, 7)
        brute = 2 in {x * x % p for x in range(1, p)}
        if not (euler == rule == brute):
            bad_p.append(p)
    # pq-level side of 2 through the real class builder for all ordered
    # distinct odd prime pairs below 100, against squares mod q
    bad_pq = []
    for p in (n for n in range(3, 100) if is_prime(n)):
        for q in (n for n in range(3, 100) if is_prime(n)):
            if p == q:
                continue
            system = build_system(p, q, 1, 1)
            in_d0 = 2 in class_table(system, ClassId("pq", 1, 1, 0))
            brute = 2 in {x * x % q for x in range(1, q)}
            if in_d0 != brute:
                bad_pq.append((p, q))
    ok = not bad_p and not bad_pq
    _verdict(acceptance_log, 6, ok,
             f"167 odd primes < 1000 three-way agreement "
             f"(counterexamples {bad_p or 'none'}); 552 ordered pairs "
             f"< 100 class-side vs squares mod q "
             f"(counterexamples {bad_pq[:3] or 'none'})")


def test_criterion_7_structure_over_grid(acceptance_log):
    violations = 0
    systems = 0
    for p, q in GRID_PAIRS:
        for m, n in GRID_EXPONENTS:
            system = build_system(p, q, m, n)
            build_partition(system)
            found = (check_structural_lemmas(system)
                     + check_residue_rules(system))
            violations += len(found)
            systems += 1
    _verdict(acceptance_log, 7, violations == 0,
             f"{systems} grid systems: partition exact, "
             f"{violations} structural/residue violations")


def test_criterion_8_extension_field_proof(acceptance_log):
    t0 = time.monotonic()
    ok = True
    parts = []
    expected = {
        # (params, degree, cells, regime values for the default mapping):
        # at (3,7) the spectrum is two-valued (e+b+c generically, e+b+d on
        # the p-saturated k), measured and asserted per k below
        (3, 5, 1, 1): (2, 84, (3, 3, 3)),
        (3, 7, 1, 1): (3, 120, (3, 2, 3)),
        (3, 5, 2, 1): (6, 440, (3, 3, 3)),
    }
    for params, (degree, cells, values) in expected.items():
        system = build_system(*params)
        context = build_extension(system.half_period)
        char_report = verify_char_sum_tables(system, context)
        case_report = verify_case_table(system, context, DEFAULT_MAPPING,
                                        char_sums=char_report)
        good = (context.d == degree
                and char_report.cells_checked == cells
                and case_report.s_at_1 == DEFAULT_MAPPING.e
                and (case_report.value_generic,
                     case_report.value_p_saturated,
                     case_report.value_q_saturated) == values
                and case_report.max_complexity_predicted)
        ok = ok and good
        parts.append(f"{params}:d={context.d},cells={cells}"
                     f"{'' if good else '!'}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120
    _verdict(acceptance_log, 8, ok,
             "S(1)=e and every S(beta^k) matches the per-regime table, "
             "all character-sum cells exact [" + " ".join(parts)
             + f"] ({elapsed:.1f}s)")


def test_criterion_9_balance(acceptance_log):
    off = 0
    checked = 0
    for p, q in GRID_PAIRS:
        for m, n in GRID_EXPONENTS:
            system = build_system(p, q, m, n)
            counts = np.bincount(bucket_codes(m, n)[system.partition],
                                 minlength=len(BUCKETS))
            target = (p**m * q**n - 1) // 2
            checked += 1
            if counts[BUCKETS.index("a"):].tolist() != [target] * 4:
                off += 1
    _verdict(acceptance_log, 9, off == 0,
             f"{checked} grid sequences: all four bucket counts equal "
             f"(p^m q^n - 1)/2")
