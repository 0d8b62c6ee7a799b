"""Record the reference answers the benchmark checks every output against.

Run from the repository root:

    python3 perfbench/make_reference.py [WORKLOAD ...]

Each named workload (analyze-ladder, verify-grid, sweep-mappings; default
all three) is written to
perfbench/reference/<workload>.json. Every linear complexity stored here
comes from cycloseq.analysis.analyze_symbols, which measures it by
Berlekamp-Massey and by the gcd route and raises MethodDisagreement unless
both agree, so every entry is confirmed by the two routes. The files were
recorded once at the commit that introduced the benchmark; rerun this only
to extend the reference, never to absorb a changed answer.
"""

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from cycloseq import gf4  # noqa: E402
from cycloseq.analysis import analyze_symbols, verify_theorem  # noqa: E402
from cycloseq.cyclotomy import (build_partition, build_system,  # noqa: E402
                                check_residue_rules, check_structural_lemmas)
from cycloseq.errors import CycloseqError  # noqa: E402
from cycloseq.extfield import (build_extension,  # noqa: E402
                               verify_case_table, verify_char_sum_tables)
from cycloseq.sequence import (Mapping, build_sequence,  # noqa: E402
                               validate_mapping)

import systems  # noqa: E402


def poly_digest(poly):
    return hashlib.sha256(gf4.poly_to_digits(poly).encode()).hexdigest()[:16]


def lc_entry(system, mapping):
    seq = build_sequence(system, mapping, allow_degenerate=True)
    report = analyze_symbols(seq.symbols)
    return {"lc": report.lc_gcd,
            "degenerate": bool(validate_mapping(system.constants.p, mapping)),
            "minpoly": poly_digest(report.minimal_polynomial)}


def lc_table(params_list):
    out = {}
    for params in params_list:
        system = build_system(*params)
        out[systems.key(params)] = {
            systems.key(mp): lc_entry(system, Mapping(*mp))
            for mp in systems.MAPPINGS}
        print("recorded", params, file=sys.stderr, flush=True)
    return out


def verify_table():
    out = {}
    for params in systems.VERIFY_GRID:
        system = build_system(*params)
        build_partition(system)
        assert not (check_structural_lemmas(system)
                    + check_residue_rules(system))
        context = build_extension(system.half_period)
        chars = verify_char_sum_tables(system, context)
        accepted, checked = {}, set()
        for mp in systems.MAPPINGS:
            mapping = Mapping(*mp)
            if validate_mapping(system.constants.p, mapping):
                continue
            try:
                case = verify_case_table(system, context, mapping)
                lc = verify_theorem(system, mapping, strict=True)
            except CycloseqError:
                continue
            checked.add(case.checked)
            accepted[systems.key(mp)] = {
                "lc": lc.lc_gcd,
                "case": [case.s_at_1, case.value_generic,
                         case.value_p_saturated, case.value_q_saturated],
                "minpoly": poly_digest(lc.minimal_polynomial)}
        out[systems.key(params)] = {
            "N": system.half_period, "d": context.d,
            "k_count": chars.k_count, "cells_checked": chars.cells_checked,
            "checked": checked.pop(), "accepted": accepted}
        print("recorded", params, len(accepted), "accepted",
              file=sys.stderr, flush=True)
    return out


BUILDERS = {
    "analyze-ladder": lambda: lc_table(systems.LADDER),
    "verify-grid": verify_table,
    "sweep-mappings": lambda: lc_table(systems.SWEEP_SYSTEMS),
}


def main(argv):
    for name in argv or list(BUILDERS):
        table = BUILDERS[name]()
        path = os.path.join(HERE, "reference", f"{name}.json")
        with open(path, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
