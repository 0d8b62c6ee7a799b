"""The parameter sets behind the three benchmark workloads.

Shared by the benchmark worker and by make_reference.py, so the reference
answers always cover exactly what a run can draw.
"""

import itertools

# analyze-ladder: periods 2 p^m q^n from 2 450 to 20 250.
LADDER = ((5, 7, 2, 2), (11, 13, 1, 2), (13, 17, 1, 2), (3, 5, 4, 3))
# Two of the smaller systems also go through generate + analyze --file.
# With these two, the median call of a pass is a P = 3 718 analyze on
# every seed, not the boundary between two system sizes.
FILE_SYSTEMS = LADDER[1:3]
# analyze-ladder and verify-grid draw each mapping from the orbit of one
# base mapping under the automorphisms of GF(4) (see orbit()). The images
# give sequences with the same LC and the same Euclidean remainder-degree
# sequence, so every seed does the same work; across all 72 mappings the
# gcd route at P = 20 250 takes from 1.6 s to 3.8 s. analyze and verify use
# the orbit of the package default mapping, which verify accepts on all 19
# grid systems. generate uses a mapping the mod-8 rule forbids that still
# reaches full LC on both file systems, so it needs --degenerate.
DEFAULT_BASE = (2, 3, 1, 0, 1)
FILE_BASE = (0, 1, 2, 3, 1)

# verify-grid: every p^m q^n (p < q) with 500 <= N <= 5 000 and
# ord_4(N) <= 12, the extension-degree cap of `verify`. The reference holds
# every mapping verify accepts on each system.
VERIFY_GRID = (
    (7, 73, 1, 1), (3, 19, 3, 1), (3, 73, 2, 1), (3, 241, 1, 1),
    (3, 257, 1, 1), (5, 31, 2, 1), (5, 41, 2, 1), (5, 241, 1, 1),
    (31, 41, 1, 1), (5, 257, 1, 1), (19, 73, 1, 1), (7, 241, 1, 1),
    (3, 73, 3, 1), (23, 89, 1, 1), (3, 683, 1, 1), (3, 241, 2, 1),
    (13, 241, 1, 1), (17, 241, 1, 1), (17, 257, 1, 1),
)

# sweep-mappings: one pair per (p mod 8, q mod 8) class, P <= 1 394,
# grouped by the class of p so the mod-8 rule is the same across a call.
SWEEP_GROUPS = (
    ((17, 41), (17, 3), (17, 5), (17, 7), (7, 17), (7, 3), (7, 5), (7, 23)),
    ((3, 17), (3, 11), (3, 5), (3, 7), (5, 17), (5, 3), (5, 13), (5, 7)),
)
SWEEP_SYSTEMS = tuple((p, q, 1, 1) for group in SWEEP_GROUPS for p, q in group)

# The 72 structurally valid mappings: a, b, c, d distinct and e nonzero.
PERMUTATIONS = tuple(itertools.permutations(range(4)))
MAPPINGS = tuple(perm + (e,) for perm in PERMUTATIONS for e in (1, 2, 3))


# GF(4) with the package's encoding: 2 = alpha, 3 = alpha + 1.
_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
_FROBENIUS = (0, 1, 3, 2)


def orbit(mapping):
    """Images of a mapping under x -> c x and x -> x^2, sorted."""
    scaled = [tuple(_MUL[c][v] for v in mapping) for c in (1, 2, 3)]
    return sorted(set(scaled) | {tuple(_FROBENIUS[v] for v in m)
                                 for m in scaled})


def key(values):
    """"5,7,2,2"-style key for a system or mapping tuple."""
    return ",".join(str(v) for v in values)


def period(system):
    p, q, m, n = system
    return 2 * p**m * q**n
