#!/usr/bin/env python3
# What happens when e takes a forbidden value. The mod-8 rule bans e = b
# and e = b+c here (p = 3 is 3 mod 8); measurement shows one banned choice
# still reaches full complexity while the other genuinely collapses, and
# the (p^m+1)(q^n+1)/2 floor holds either way.

from cycloseq.analysis import analyze_degenerate, degenerate_lower_bound
from cycloseq.cyclotomy import build_system
from cycloseq.sequence import (DEFAULT_MAPPING, Mapping, forbidden_e,
                               spectrum_profile, validate_mapping)

for p, q in ((3, 5), (3, 7)):
    system = build_system(p, q, 1, 1)
    period = system.period
    bound = degenerate_lower_bound(p, q, 1, 1)
    print(f"\n(p,q) = ({p},{q}), period {period}, floor {bound}")
    for e in sorted({e for e, _ in forbidden_e(p, DEFAULT_MAPPING)}):
        mapping = Mapping(2, 3, 1, 0, e)
        report = analyze_degenerate(system, mapping)
        tag = "reduced" if report.lc < period else "still full"
        print(f"  e={e}: LC = {report.lc:3d}  [{tag}]  "
              f"violations: {report.violations[0]}")

# a mapping the rule accepts can still fall short: e = b + d kills the
# spectrum on every k divisible by p^m when 2 sits in the wrong coset
system = build_system(3, 7, 1, 1)
witness = Mapping(0, 3, 1, 2, 1)
print(f"\nwitness {witness.as_tuple()} at (3,7): "
      f"rule violations {validate_mapping(3, witness)}")
prof = spectrum_profile(system, witness)
print(f"predicted spectrum regimes: generic {prof.value_generic}, "
      f"p-saturated {prof.value_p_saturated}, "
      f"q-saturated {prof.value_q_saturated}")
report = analyze_degenerate(system, witness)
print(f"measured LC = {report.lc} < {system.period}")
