"""Linear complexity of quaternary sequences by two independent routes.

Route one runs Berlekamp-Massey over GF(4) on two tiled periods of the
sequence and returns the shortest LFSR length plus its connection
polynomial C(x) with C(0) = 1. It keeps Massey's recurrence but reads
each discrepancy off a series instead of computing an inner product
(Sarwate and Shanbhag's reformulation): the coefficient of x^t in
R(x) = C(x) S(x) is the discrepancy of C at t, and each update of C is
made to R as well. A run of zero discrepancies is skipped in one step,
and the loop stops once R has no term left before the end of the input.
The stop is exact for any input, since every later discrepancy is zero
and so C and L are final; on two periods of a sequence of linear
complexity L it comes after about 2L of the 2P symbols.

Route two is purely algebraic: for a sequence of period P,
LC = P - deg gcd(x^P - 1, S(x)) and the minimal polynomial is the
quotient (x^P - 1) / gcd, which for full-period input is exactly the
monic normalization of the unique minimal connection polynomial. The two
routes must agree on both the length and the polynomial; analyze and
verify_theorem enforce that.

Route two never runs Euclid on degree-P inputs. Write P = 2^a N with N
odd and F = x^N - 1; F is squarefree and x^P - 1 = F^(2^a), so the gcd
is the product of G_1, ..., G_(2^a), where G_j is the product of the
irreducible factors of F whose roots are roots of S of multiplicity at
least j:

    G_1     = gcd(F, S mod F)            (the fold: S mod F is the XOR
                                          of the 2^a blocks of length N)
    G_(j+1) = gcd(G_j, D^(j) S mod F)

A root of F is a root of S of multiplicity > j exactly when the Hasse
derivatives D^(0) S, ..., D^(j) S all vanish there. D^(j) S has s_t at
x^(t - j) when t & j == j (Lucas: binom(t, j) is odd) and 0 otherwise;
the factor x^(-j) is a unit mod F, so only the mask is applied. The
steps stop at the first G_j = 1, so on P = 2N they are at most two gcds
of degree <= N.
"""

from dataclasses import dataclass

import numpy as np

from . import gf4
from .errors import (InvalidParams, MethodDisagreement, TheoremViolation)
from .sequence import (DEFAULT_MAPPING, build_sequence,
                       e_constraint_violations, spectrum_profile)


def berlekamp_massey(symbols):
    """Shortest LFSR over GF(4) generating the given symbol array.

    Returns (L, C) where C is the connection polynomial, constant term 1,
    satisfying s_t = sum_{i=1..L} C_i s_{t-i} for all t >= L. O(len^2)
    bit operations on gf4 bit planes, in the series form of the module
    docstring. Two series are kept: R = C S, and B S, where B is C as it
    was before the last length change, made at step `last` with
    discrepancy b. Both are held reversed (bit len - 1 - t for x^t), so
    the next nonzero discrepancy d, at some t > last, is R's top bit:
    zero discrepancies cost nothing, terms past the end of the input fall
    off the bottom, and R = 0 means none is left. With shift = t - last,
    the step C += (d / b) x^shift B is matched by R += (d / b) x^shift B S,
    a right shift of B S on the reversed planes, which clears d. A length
    change makes the old C the new B and the old R the new B S, with no
    shift. The multiples of B and B S by d / b are made each time those
    are set, so no step multiplies in the field.
    """
    s = np.asarray(symbols, dtype=np.uint8)
    size = len(s)
    if size == 0:
        return 0, gf4.poly([1])
    if s.max() > 3:
        raise InvalidParams("symbols must be field elements 0..3")
    # R's planes; bit size - 1 - t holds x^t
    r1, r0 = gf4.to_planes(s[::-1])
    c1, c0 = 0, 1
    # B = 1 and b = 1 at the start: a length change at t = -1, whose
    # discrepancy 1 sits one bit above the input in B S
    b_times = _multiples(0, 1, 1)
    bs_times = _multiples(r1, r0 | 1 << size, 1)
    length = 0
    last = -1
    # each pass clears the top term, so at most one pass per position
    for _ in range(size):
        top = max(r1.bit_length(), r0.bit_length())
        if not top:
            break
        t = size - top
        d = (r1 >> (top - 1)) << 1 | (r0 >> (top - 1))
        shift = t - last
        x1, x0 = b_times[d]
        y1, y0 = bs_times[d]
        if 2 * length <= t:
            b_times = _multiples(c1, c0, d)
            bs_times = _multiples(r1, r0, d)
            length = t + 1 - length
            last = t
        c1 ^= x1 << shift
        c0 ^= x0 << shift
        r1 ^= y1 >> shift
        r0 ^= y0 >> shift
    return length, gf4.from_planes(c1, c0)


def _multiples(hi, lo, b):
    """The planes times d / b, indexed by d = 1..3 (index 0 unused).

    Digit d is alpha^(d - 1), so d / b = alpha^((d - b) mod 3): the
    multiples by 1, alpha and alpha^2 = alpha + 1, which cost one
    exclusive-or, rotated by (1 - b) mod 3.
    """
    mix = hi ^ lo
    powers = ((hi, lo), (mix, hi), (lo, mix))
    turn = (1 - b) % 3
    return (None,) + powers[turn:] + powers[:turn]


def lc_via_gcd(symbols):
    """Linear complexity from gcd(x^P - 1, S(x)) for one full period.

    Returns (lc, minimal_polynomial) with the minimal polynomial monic.
    The zero sequence has lc 0 and minimal polynomial 1. The gcd comes
    from the folded steps of the module docstring, and the minimal
    polynomial from one exact division of x^P - 1 by their product;
    a nonzero remainder raises MethodDisagreement.
    """
    s = np.asarray(symbols, dtype=np.uint8)
    period = len(s)
    if period == 0:
        raise InvalidParams("need at least one symbol")
    if s.max(initial=0) > 3:
        raise InvalidParams("symbols must be field elements 0..3")
    twos = (period & -period).bit_length() - 1
    odd = period >> twos
    # j < 2^a, so t & j depends only on t mod 2^a
    low_bits = np.arange(period) & ((1 << twos) - 1)
    common = (0, 1 << odd | 1)
    divisor = (0, 1)
    for j in range(1 << twos):
        hasse = np.where((low_bits & j) == j, s, 0).reshape(-1, odd)
        common = gf4.gcd_planes(
            *common, *gf4.to_planes(np.bitwise_xor.reduce(hasse)))
        if common == (0, 1):
            break
        divisor = common if j == 0 else gf4.mul_planes(*common, *divisor)
    if divisor == (0, 1):
        return period, gf4.x_pow_n_minus_1(period)
    quotient, r1, r0 = gf4.divmod_planes(0, 1 << period | 1, *divisor)
    if r1 | r0:
        raise MethodDisagreement(
            "gcd(x^P - 1, S(x)) does not divide x^P - 1")
    return len(quotient) - 1, np.array(quotient, dtype=np.uint8)


def methods_consistent(lc_bm, conn, lc_gcd, minpoly):
    """True when both lengths match and the BM recurrence is minimal.

    For a full-period input the reduced denominator of S(x)/(x^P - 1) is
    the unique minimal connection polynomial, so BM's C(x), normalized
    monic, must coincide with the gcd quotient.
    """
    if lc_bm != lc_gcd:
        return False
    return gf4.poly_eq(gf4.poly_monic(conn), minpoly)


@dataclass(frozen=True)
class LinearComplexityReport:
    """Both measurements plus the agreement and attainment verdicts."""

    lc_bm: int
    lc_gcd: int
    minimal_polynomial: np.ndarray
    methods_agree: bool
    theorem_holds: bool

    def to_json_dict(self):
        return {
            "lc_bm": self.lc_bm,
            "lc_gcd": self.lc_gcd,
            "minimal_polynomial": gf4.poly_to_digits(self.minimal_polynomial),
            "methods_agree": self.methods_agree,
            "theorem_holds": self.theorem_holds,
        }


def analyze_symbols(symbols):
    """Measure one period by both methods and cross-check them.

    theorem_holds reports whether the complexity equals the full period.
    Raises MethodDisagreement when the two routes differ.
    """
    s = np.asarray(symbols, dtype=np.uint8)
    lc_gcd, minpoly = lc_via_gcd(s)
    lc_bm, conn = berlekamp_massey(np.tile(s, 2))
    if not methods_consistent(lc_bm, conn, lc_gcd, minpoly):
        raise MethodDisagreement(
            f"BM found {lc_bm}, gcd found {lc_gcd}, or minimal polynomials differ")
    return LinearComplexityReport(
        lc_bm=lc_bm, lc_gcd=lc_gcd, minimal_polynomial=minpoly,
        methods_agree=True, theorem_holds=(lc_gcd == len(s)))


def verify_theorem(system, mapping=DEFAULT_MAPPING, strict=False):
    """Build the sequence for a valid mapping and check LC = 2 p^m q^n.

    Always raises on method disagreement; with strict=True also raises
    TheoremViolation when the measured complexity falls short, otherwise
    the report carries theorem_holds = False.
    """
    seq = build_sequence(system, mapping)
    report = analyze_symbols(seq.symbols)
    if strict and not report.theorem_holds:
        raise TheoremViolation(
            f"complexity {report.lc_gcd} < period {seq.period} "
            f"for mapping {mapping.as_tuple()}")
    return report


def degenerate_lower_bound(p, q, m, n):
    """(p^m + 1)(q^n + 1) / 2, the guaranteed floor for degenerate maps."""
    return (p**m + 1) * (q**n + 1) // 2


@dataclass(frozen=True)
class DegenerateReport:
    """Measured complexity of a mapping that breaks the mod-8 constraint."""

    violations: tuple
    lc_bm: int
    lc_gcd: int
    lower_bound: int
    reduced: bool


def analyze_degenerate(system, mapping):
    """Measure a degenerate mapping and check the lower bound.

    The mapping must be structurally sound and actually degenerate, either
    by the mod-8 rule or by a vanishing spectrum regime; a fully valid
    mapping that attains the maximum belongs to verify_theorem instead.
    Raises TheoremViolation if the measured complexity dips below
    (p^m + 1)(q^n + 1)/2.
    """
    seq = build_sequence(system, mapping, allow_degenerate=True)
    c = system.constants
    soft = e_constraint_violations(c.p, mapping)
    if not soft and spectrum_profile(system, mapping).attains_max:
        raise InvalidParams(
            "mapping is valid and attains the maximum; nothing degenerate")
    report = analyze_symbols(seq.symbols)
    bound = degenerate_lower_bound(c.p, c.q, c.m, c.n)
    if report.lc_gcd < bound:
        raise TheoremViolation(
            f"complexity {report.lc_gcd} below the floor {bound} "
            f"for mapping {mapping.as_tuple()}")
    return DegenerateReport(
        violations=tuple(soft),
        lc_bm=report.lc_bm,
        lc_gcd=report.lc_gcd,
        lower_bound=bound,
        reduced=report.lc_gcd < seq.period,
    )
