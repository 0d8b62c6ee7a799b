#!/usr/bin/env python3
# The extension-field verifier: builds F_{4^d} for N = p^m q^n, measures
# every character sum over every H-set against its closed form, and
# measures the full spectrum S(beta^k) against the per-regime table.

from cycloseq.cyclotomy import ClassId, build_system
from cycloseq.extfield import (build_extension, char_sum, verify_case_table,
                               verify_char_sum_tables)
from cycloseq.numtheory import factorize
from cycloseq.sequence import DEFAULT_MAPPING


def order(context, x):
    """Multiplicative order of a nonzero element of F_{4^d}."""
    result = context.group_order
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
          f"{''.join(str((context.tail >> (2 * i)) & 3) for i in range(context.d))}1, "
          f"beta = generator^{(4**context.d - 1) // N}")
    print(f"  zeta orders: p -> {order(context, zeta[p])}, "
          f"q -> {order(context, zeta[q])}, "
          f"pq -> {order(context, zeta[p * q])}")

    chars = verify_char_sum_tables(system, context)
    print(f"  character sums: {chars.cells_checked} cells over "
          f"{chars.k_count} values of k, all exact")

    case = verify_case_table(system, context, DEFAULT_MAPPING)
    print(f"  spectrum: S(1) = {case.s_at_1}; generic {case.value_generic}, "
          f"p-saturated {case.value_p_saturated}, "
          f"q-saturated {case.value_q_saturated}; "
          f"full complexity predicted: {case.max_complexity_predicted}")

# one sum spelled out: the h = 0 doubled-modulus class at (3,5), k = 1
system = build_system(3, 5, 1, 1)
context = build_extension(15)
value = char_sum(system, context, ClassId("2pq", 1, 1, 0), 1)
print(f"\nsum of beta^t over H_0 at (3,5), k = 1: packed element {value}")
