"""Linear complexity of quaternary sequences by two independent routes.

Route one runs Berlekamp-Massey over GF(4) on two tiled periods of the
sequence and returns the shortest LFSR length plus its connection
polynomial C(x) with C(0) = 1. Route two is purely algebraic: for a
sequence of period P, LC = P - deg gcd(x^P - 1, S(x)) and the minimal
polynomial is the quotient (x^P - 1) / gcd, which for full-period input
is exactly the monic normalization of the unique minimal connection
polynomial. The two routes must agree on both the length and the
polynomial; analyze and verify_theorem enforce that.

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
from .sequence import (DEFAULT_MAPPING, QuaternarySequence, build_sequence,
                       spectrum_profile, validate_mapping)


def berlekamp_massey(symbols):
    """Shortest LFSR over GF(4) generating the given symbol array.

    Returns (L, C) where C is the connection polynomial, constant term 1,
    satisfying s_t = sum_{i=1..L} C_i s_{t-i} for all t >= L. O(len^2)
    bit operations on gf4 bit planes: with the sequence reversed into
    planes R, the window s_t, s_{t-1}, ... is R >> (len - 1 - t), each
    discrepancy sum_i C_i s_{t-i} is the parity of two masked popcounts,
    and each update C += coef x^shift B is a plane mix plus a shift.
    """
    s = np.asarray(symbols, dtype=np.uint8)
    size = len(s)
    if size == 0:
        return 0, gf4.poly([1])
    if s.max() > 3:
        raise InvalidParams("symbols must be field elements 0..3")
    r1, r0 = gf4.to_planes(s[::-1])
    c1, c0 = 0, 1
    b1, b0 = 0, 1
    length = 0
    shift = 1
    inv_prev = 1
    for t in range(size):
        w1 = r1 >> (size - 1 - t)
        w0 = r0 >> (size - 1 - t)
        # (c1 alpha + c0)(w1 alpha + w0)
        #     = (c1 w1 + c1 w0 + c0 w1) alpha + (c1 w1 + c0 w0)
        hi = ((c1 & (w1 ^ w0)) ^ (c0 & w1)).bit_count() & 1
        lo = ((c1 & w1) ^ (c0 & w0)).bit_count() & 1
        d = hi << 1 | lo
        if d == 0:
            shift += 1
            continue
        x1, x0 = gf4.planes_scale(b1, b0, gf4.gf4_mul(d, inv_prev))
        if 2 * length <= t:
            b1, b0 = c1, c0
            c1 ^= x1 << shift
            c0 ^= x0 << shift
            length = t + 1 - length
            inv_prev = gf4.INV_TABLE[d]
            shift = 1
        else:
            c1 ^= x1 << shift
            c0 ^= x0 << shift
            shift += 1
    return length, gf4.from_planes(c1, c0)


def lc_via_gcd(symbols):
    """Linear complexity from gcd(x^P - 1, S(x)) for one full period.

    Returns (lc, minimal_polynomial) with the minimal polynomial monic.
    The zero sequence has lc 0 and minimal polynomial 1. The gcd comes
    from the folded steps of the module docstring, and the minimal
    polynomial from one exact division of x^P - 1 by their product;
    a nonzero remainder raises MethodDisagreement.
    """
    if isinstance(symbols, QuaternarySequence):
        symbols = symbols.symbols
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

    mapping: tuple
    violations: tuple
    lc_bm: int
    lc_gcd: int
    lower_bound: int
    reduced: bool
    minimal_polynomial: np.ndarray

    def to_json_dict(self):
        return {
            "mapping": list(self.mapping),
            "violations": list(self.violations),
            "lc_bm": self.lc_bm,
            "lc_gcd": self.lc_gcd,
            "lower_bound": self.lower_bound,
            "reduced": self.reduced,
            "minimal_polynomial": gf4.poly_to_digits(self.minimal_polynomial),
        }


def analyze_degenerate(system, mapping):
    """Measure a degenerate mapping and check the lower bound.

    The mapping must be structurally sound and actually degenerate, either
    by the mod-8 rule or by a vanishing spectrum regime; a fully valid
    mapping that attains the maximum belongs to verify_theorem instead.
    Raises TheoremViolation if the measured complexity dips below
    (p^m + 1)(q^n + 1)/2.
    """
    from .sequence import e_constraint_violations, structural_violations
    from .errors import InvalidMapping

    bad = structural_violations(mapping)
    if bad:
        raise InvalidMapping(bad)
    c = system.constants
    soft = e_constraint_violations(c.p, mapping)
    profile = spectrum_profile(system, mapping)
    if not soft and profile.attains_max:
        raise InvalidParams(
            "mapping is valid and attains the maximum; nothing degenerate")
    seq = build_sequence(system, mapping, allow_degenerate=True)
    report = analyze_symbols(seq.symbols)
    bound = degenerate_lower_bound(c.p, c.q, c.m, c.n)
    if report.lc_gcd < bound:
        raise TheoremViolation(
            f"complexity {report.lc_gcd} below the floor {bound} "
            f"for mapping {mapping.as_tuple()}")
    return DegenerateReport(
        mapping=mapping.as_tuple(),
        violations=tuple(soft),
        lc_bm=report.lc_bm,
        lc_gcd=report.lc_gcd,
        lower_bound=bound,
        reduced=report.lc_gcd < seq.period,
        minimal_polynomial=report.minimal_polynomial,
    )
