"""Every cap and budget of cycloseq, and the one raise of CapExceeded.

A cap refuses an input (check_limit: CapExceeded, exit 3); a budget
bounds what a process holds or gathers and never moves an answer. Every
process-lifetime memo holds one entry or a budget named here.
"""

from .errors import CapExceeded

# the default of --cap, on 2 p^m q^n and an analyze --file length
DEFAULT_PARAM_CAP = 10**7
# no cap lifts a period past this: below it a product of two residues
# mod the period is exact in int64, which the power table relies on
PERIOD_CEILING = 2**31 - 1
# verify's field route: N = p^m q^n, and the degree d of F_{4^d}, which
# also sizes extfield's two per-degree memos (0.18 MB at all 12 degrees)
VERIFY_N_CAP = 5000
DEFAULT_DEGREE_CAP = 12
# a bad grid entry longer than this is echoed cut, with its length
ECHO_CHARS = 40

# label positions build_system may hold, 16 MB of int16: a census of the
# 980 pairs with pq <= 5 000 at (1, 1) paints 4 904 576
HELD_POSITIONS = 2**23
# fields build_extension holds: the caps pass 52 values of N, so all of
# them fit, 0.15 MB of beta_powers in all
HELD_FIELDS = 64
# gathered elements per block of extfield._power_sums, whose int32 index,
# quotient and product arrays and gathered uint32 array take 64 KB each.
# Over the orbit leaders of the 19 verify-grid systems the kernel peaks at
# 274 KiB by tracemalloc (626 KiB at 2^16), and a cold in-process pass of
# their 19 verify calls makes 115 minor page faults, as at 2^13, where
# 2^15 makes 442 and 2^16 338: 2^14 is the knee
_BLOCK_ELEMENTS = 1 << 14
# entries of each table memo, measured full by tracemalloc: cells._cell_sums
# holds 1.2 to 1.6 MB (1.6 KB a table over the 6 658 systems of the 1 960
# ordered pairs with pq <= 5 000 at (1, 1), (2, 1), (1, 2) and (2, 2));
# cyclotomy.partition_labels and bucket_codes hold every one of the 107
# shapes the period ceiling allows, 2.1 and 0.14 MB; the primitive-root
# search 37 KB. tools/answers.py reads 135 tables, 10 shapes and 24 primes
HELD_TABLES = 2**10


def check_limit(what, value, limit, bound, shown=None):
    """The one raise of CapExceeded; shown, when given, stands for value."""
    if value > limit:
        raise CapExceeded(f"{what} {value if shown is None else shown} "
                          f"exceeds {bound} {limit}")


def check_period(period, cap, shown=None):
    """check_limit on a period, under the lower of cap and PERIOD_CEILING."""
    limit = min(cap, PERIOD_CEILING)
    check_limit("period", period, limit,
                "cap" if cap == limit else "the period ceiling", shown)
