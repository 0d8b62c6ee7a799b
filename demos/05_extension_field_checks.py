#!/usr/bin/env python3
# The extension-field verifier: builds F_{4^d} for N = p^m q^n, measures
# every character sum over every H-set against its closed form, and
# measures the full spectrum S(beta^k) against the per-regime table.

from cycloseq import gf4
from cycloseq.cyclotomy import build_system
from cycloseq.extfield import (build_extension, verify_case_table,
                               verify_char_sum_tables)
from cycloseq.numtheory import factorize
from cycloseq.sequence import DEFAULT_MAPPING


def order(context, x):
    """Multiplicative order of a nonzero element of F_{4^d}."""
    result = 4**context.d - 1
    for r in factorize(result):
        while result % r == 0 and context.pow(x, result // r) == 1:
            result //= r
    return result


for params in ((3, 5, 1, 1), (3, 7, 1, 1), (3, 5, 2, 1)):
    system = build_system(*params)
    N = system.half_period
    context = build_extension(N)
    p, q = params[:2]
    # beta^(N/r) is a primitive r-th root of unity for each divisor r of N
    zeta = {r: context.pow(context.beta, N // r) for r in (p, q, p * q)}
    print(f"\nN = {N}: F_4^{context.d}, modulus digits "
          f"{gf4.poly_to_digits(context.modulus)}, "
          f"beta = c^{(4**context.d - 1) // N} for the first c from x on "
          f"that gives order N")
    print(f"  zeta orders: p -> {order(context, zeta[p])}, "
          f"q -> {order(context, zeta[q])}, "
          f"pq -> {order(context, zeta[p * q])}")

    chars = verify_char_sum_tables(system, context)
    if params == (3, 5, 1, 1):
        first_sum = int(chars.table[0, 0])
    print(f"  character sums: {chars.cells_checked} cells over "
          f"{chars.k_count} values of k, all exact")

    # the spectrum is read off the table just checked, not checked again
    case = verify_case_table(system, context, DEFAULT_MAPPING,
                             char_sums=chars)
    print(f"  spectrum: S(1) = {case.s_at_1}; generic {case.value_generic}, "
          f"p-saturated {case.value_p_saturated}, "
          f"q-saturated {case.value_q_saturated}; "
          f"full complexity predicted: {case.max_complexity_predicted}")

# one sum spelled out: the table's first cell at (3,5), k = 1, which is
# the h = 0 doubled-modulus class (2pq, 1, 1, 0)
print(f"\nsum of beta^t over H_0 at (3,5), k = 1: packed element "
      f"{first_sum}")
