"""Linear complexity of quaternary sequences by three independent routes.

Route one runs Berlekamp-Massey over GF(4) on two tiled periods of the
sequence and returns the shortest LFSR length L. It keeps Massey's
recurrence for the connection polynomial C(x) but reads each
discrepancy off a series instead of computing an inner product
(Sarwate and Shanbhag's reformulation): the coefficient of x^t in
R(x) = C(x) S(x) is the discrepancy of C at t, and each update of C is
made to R alone, so C itself is never formed. A length change writes
out the multiples of the old R by 1/d inline, as one of three fixed
rotations of (v, alpha v, alpha^2 v) chosen by d, so no step multiplies
in the field. A run of zero discrepancies is skipped in one step, and
the loop stops once R has no term left before the end of the input. The
stop is exact for any input, since every later discrepancy is zero and
so L is final; on two periods of a sequence of linear complexity L it
comes after about 2L of the 2P symbols.

Route two is purely algebraic: for a sequence of period P,
LC = P - deg gcd(x^P - 1, S(x)) and the minimal polynomial is the
quotient (x^P - 1) / gcd, which for full-period input is exactly the
monic normalization of the unique minimal connection polynomial.

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
masks and the fold are ANDs, shifts and XORs on S's gf4 bit planes. The
steps stop at the first G_j = 1, so on P = 2N they are at most two gcds
of degree <= N.

Route three, predict_lc, builds no sequence: it gives the LC of the
construction from (p, q, m, n) and the mapping in closed form. As
x^(2N) - 1 = (x^N - 1)^2, LC = 2N - sum of mu(k) over k in Z_N, where
beta is a primitive N-th root of unity, S(beta^k) = E(k) + O(k) splits
into its even-position and odd-position sums, and
mu(k) = [E = O] (1 + [O = 0]): O(k) is beta^k times the derivative's
value. Each family (i, j) adds its sums T_h = sum over x in D_h of
zeta^(k x), zeta = beta^(N / p^i q^j), to O as a T_0 + b T_1 and to E as
c T_s + d T_(1-s), where 2 lies in D_s; O also has e. D_0 is the squares
mod p^i on a p-power family and {x : (x|q) = 1} on the others, so every
T_h is 0, 1 or a quadratic Gaussian period of p or q in characteristic 2
(Lidl and Niederreiter, Finite Fields, ch. 5; Ding, Helleseth and Shan,
IEEE T-IT 44(3), 1998): {eta_0, eta_1} = {0, 1} when 2 is a square mod
the prime and {alpha, alpha^2} when it is not. T_h then depends on k only
through v_p(k), v_q(k) and the Legendre symbols of its unit part, so
mu is summed over those cells in plain integer arithmetic. The same
closed form, family by family (cell_char_sums), is the expected side of
verify's character-sum table, with the periods measured in F_{4^d}.

Where they run: analyze and verify measure by the gcd route, then by BM,
and require the lengths to agree and the gcd route's minimal polynomial
to generate the sequence (analyze_symbols, verify_theorem). sweep, plain
and --degenerate, measures by the gcd route alone and requires it to
equal predict_lc (checked_lc).
"""

from dataclasses import dataclass

import numpy as np

from . import gf4
from .cyclotomy import _family_indices
from .errors import (InvalidParams, MethodDisagreement, TheoremViolation)
from .numtheory import two_is_square_mod
from .sequence import (DEFAULT_MAPPING, build_sequence, spectrum_profile,
                       validate_mapping)


def berlekamp_massey(symbols):
    """Length of the shortest LFSR over GF(4) generating the symbol array.

    O(len^2) bit operations, in the series form of the module docstring,
    with C itself never formed. Two series are kept: R = C S, and B S,
    where B is C as it was before the last length change, made at step
    `last` with discrepancy b. Both are held reversed (bit len - 1 - t for
    x^t), so the next nonzero discrepancy d, at some t > last, is R's top
    bit: zero discrepancies cost nothing, terms past the end of the input
    fall off the bottom, and R = 0 means none is left. With
    shift = t - last, the step C += (d / b) x^shift B is the step
    R += (d / b) x^shift B S, a right shift of B S on the reversed planes,
    which clears d. A length change makes the old R the new B S, with no
    shift. The multiples of B S by d / b are made when it is set, so no
    step multiplies in the field: as digit d is alpha^(d - 1), they are
    v, alpha v = (hi + lo, hi) and alpha^2 v = (lo, hi + lo) in a rotation
    fixed by b. The leading digit comes from the planes' lengths: 1 when
    lo is longer, else 2 plus lo's top bit.
    """
    s = np.asarray(symbols, dtype=np.uint8)
    size = len(s)
    if size == 0:
        return 0
    if s.max() > 3:
        raise InvalidParams("symbols must be field elements 0..3")
    # R's planes; bit size - 1 - t holds x^t
    r1, r0 = gf4.to_planes(s[::-1])
    # B = C = 1 and b = 1 at the start: a length change at t = -1, whose
    # discrepancy 1 sits one bit above the input in B S. times[d] holds
    # the planes of (d / b) B S.
    s0 = r0 | 1 << size
    mix = r1 ^ s0
    times = (None, (r1, s0), (mix, r1), (s0, mix))
    length = 0
    last = -1
    # each pass clears the top term, so at most one pass per position
    for _ in range(size):
        top, low = r1.bit_length(), r0.bit_length()
        if low > top:
            top, d = low, 1
        elif top:
            d = 2 | (r0 >> (top - 1))
        else:
            break
        t = size - top
        shift = t - last
        y1, y0 = times[d]
        if 2 * length <= t:
            # the old R becomes B S, with b = d
            mr = r1 ^ r0
            one, alpha, alpha2 = (r1, r0), (mr, r1), (r0, mr)
            if d == 1:
                times = (None, one, alpha, alpha2)
            elif d == 2:
                times = (None, alpha2, one, alpha)
            else:
                times = (None, alpha, alpha2, one)
            length = t + 1 - length
            last = t
        r1 ^= y1 >> shift
        r0 ^= y0 >> shift
    return length


def lc_via_gcd(symbols):
    """Linear complexity from gcd(x^P - 1, S(x)) for one full period.

    Returns (lc, (m1, m0)), the gf4 planes of the monic minimal
    polynomial. The zero sequence has lc 0 and minimal polynomial 1. The
    gcd comes from the folded steps of the module docstring, and the
    minimal polynomial from one exact division of x^P - 1 by their
    product; a nonzero remainder raises MethodDisagreement.
    """
    s = np.asarray(symbols, dtype=np.uint8)
    period = len(s)
    if period == 0:
        raise InvalidParams("need at least one symbol")
    if s.max(initial=0) > 3:
        raise InvalidParams("symbols must be field elements 0..3")
    twos = (period & -period).bit_length() - 1
    odd, step = period >> twos, 1 << twos
    planes = gf4.to_planes(s)
    # the bits t = 0 mod 2^a; as j < 2^a, the bits t with t & j == j are
    # its shifts by the r < 2^a with r & j == j
    every_step = ((1 << period) - 1) // ((1 << step) - 1)
    common = (0, 1 << odd | 1)
    divisor = (0, 1)
    for j in range(step):
        mask = sum(every_step << r for r in range(step) if r & j == j)
        hasse = [x & mask for x in planes]
        for width in (odd << k for k in reversed(range(twos))):  # the fold
            hasse = [(x >> width) ^ (x & ((1 << width) - 1)) for x in hasse]
        common = gf4.gcd_planes(*common, *hasse)
        if common == (0, 1):
            break
        divisor = common if j == 0 else gf4.mul_planes(*common, *divisor)
    if divisor == (0, 1):
        return period, (0, 1 << period | 1)
    q1, q0, r1, r0 = gf4.divmod_planes(0, 1 << period | 1, *divisor)
    if r1 | r0:
        raise MethodDisagreement(
            "gcd(x^P - 1, S(x)) does not divide x^P - 1")
    # a monic quotient: its top digit 1 sits on the lo plane
    return q0.bit_length() - 1, (q1, q0)


def generates(symbols, lc, minpoly):
    """True when minpoly, monic of degree lc, generates the periodic
    sequence of which symbols is one period.

    Its product with the first 2 lc terms, read round the period, must
    vanish at x^lc .. x^(2 lc - 1), where each coefficient is
    sum_i m_i s_(t - i) at one t. At lc = LC only the minimal polynomial
    passes: a register of length LC that generates 2 LC terms is unique
    (Massey, Theorem 1), so it generates the whole sequence.
    """
    m1, m0 = minpoly
    if m1 >> lc or (m0 >> lc) != 1:
        return False
    w1, w0 = gf4.mul_planes(m1, m0, *gf4.to_planes(np.resize(symbols, 2 * lc)))
    return not ((w1 | w0) >> lc) & ((1 << lc) - 1)


def _prime_power_sums(r, top, v, nonsquare):
    """(T_0, T_1) summed over the families r^1 .. r^top at v = v_r(k).

    T_h of family r^i sums zeta^(u r^v x) over x in D_h, the squares
    (h = 0) or the non-squares mod r^i, with zeta a primitive r^i-th root
    of unity and u a unit mod r, nonsquare = [(u|r) = -1]. It is 0 when
    v < i - 1, the Gaussian period eta_(h + nonsquare) when v = i - 1, and
    phi(r^i) / 2 ones, [r = 3 mod 4], when v >= i.
    """
    ones = min(v, top) % 2 * (r % 4 == 3)
    if v >= top:
        return ones, ones
    periods = (0, 1) if two_is_square_mod(r) else (gf4.ALPHA, gf4.ALPHA1)
    return ones ^ periods[nonsquare], ones ^ periods[1 - nonsquare]


def _twists(p, q):
    # Euler's criterion: [(q|p) = -1] and [(p|q) = -1]
    return int(pow(q, p // 2, p) != 1), int(pow(p, q // 2, q) != 1)


def predict_lc(constants, mapping):
    """Exact LC of the sequence, in closed form (route three above).

    k = p^a q^b l in Z_N is grouped by (a, b, [(l|p) = -1] if a < m,
    [(l|q) = -1] if b < n); a group has phi(p^(m-a)) phi(q^(n-b)) / 2^s
    members, s the number of Legendre symbols in its key. The p-power
    families read k at p, the q-power families k at q. The mixed family
    (i, j) is the Ramanujan sum mod p^i, odd exactly when a = i - 1,
    times the sums of k p^(-i) at q. The unit part of a multiplier keeps
    the other prime's power, so its Legendre symbol picks up (q|p)^b or
    (p|q)^a, and (p|q) on the mixed families. Plain ints throughout.
    """
    c = constants
    p, q, m, n = c.p, c.q, c.m, c.n
    times_a, times_b, times_c, times_d = (
        [gf4.gf4_mul(v, t) for t in range(4)]
        for v in mapping.as_tuple()[:4])
    side_p, side_q = (not two_is_square_mod(r) for r in (p, q))
    q_at_p, p_at_q = _twists(p, q)
    lost = 0
    for a in range(m + 1):
        for b in range(n + 1):
            size = ((p - 1) * p**(m - a - 1) if a < m else 1) * (
                (q - 1) * q**(n - b - 1) if b < n else 1) >> (
                (a < m) + (b < n))
            for lp in (0, 1) if a < m else (0,):
                p0, p1 = _prime_power_sums(p, m, a, lp ^ (b & q_at_p))
                for lq in (0, 1) if b < n else (0,):
                    q0, q1 = _prime_power_sums(q, n, b, lq ^ (a & p_at_q))
                    if a < m:  # the mixed families (a + 1, j)
                        x0, x1 = _prime_power_sums(q, n, b, lq ^ p_at_q)
                        q0, q1 = q0 ^ x0, q1 ^ x1
                    t0, t1 = p0 ^ q0, p1 ^ q1
                    # T_s, with 2 in D_s: s is p's side on the p-power
                    # families and q's on the others
                    ts = (p1 if side_p else p0) ^ (q1 if side_q else q0)
                    odd = mapping.e ^ times_a[t0] ^ times_b[t1]
                    even = times_c[ts] ^ times_d[t0 ^ t1 ^ ts]
                    if even == odd:
                        lost += size << (odd == 0)
    return 2 * c.half_period - lost


def cell_char_sums(constants, cell, periods):
    """T_0, T_1 over each family's doubled-modulus H-sets, in extfield's
    _cells order, at a k in predict_lc's cell (a, b, lp, lq): the terms
    _prime_power_sums adds up, with predict_lc's twists; periods holds
    (eta_0, eta_1) of p and of q in any form where 1 is 1 and + is XOR. A
    mixed family is its Ramanujan sum mod p^i (odd iff a = i - 1) times q's.
    """
    c, (a, b, lp, lq) = constants, cell
    q_at_p, p_at_q = _twists(c.p, c.q)
    out = []
    for i, j in _family_indices(c.m, c.n):
        # family r^top at v = v_r(k), the unit part's Legendre bit ns
        r, top, v, ns = ((c.q, j, b, lq ^ (p_at_q if i else a & p_at_q))
                         if j else (c.p, i, a, lp ^ (b & q_at_p)))
        if (i and j and a != i - 1) or v < top - 1:
            out += 0, 0
        elif v >= top:
            out += (int(r % 4 == 3),) * 2
        else:
            out += periods[bool(j)][ns], periods[bool(j)][1 - ns]
    return out


def checked_lc(seq):
    """LC of one period by the gcd route, which must equal predict_lc.

    sweep's measurement. Raises MethodDisagreement naming both values and
    the mapping when they differ.
    """
    lc, _ = lc_via_gcd(seq.symbols)
    predicted = predict_lc(seq.constants, seq.mapping)
    if lc != predicted:
        raise MethodDisagreement(
            f"gcd found {lc}, the closed form predicts {predicted} "
            f"for mapping {seq.mapping.as_tuple()}")
    return lc


@dataclass(frozen=True)
class LinearComplexityReport:
    """Both measurements plus the agreement and attainment verdicts.

    minimal_planes holds the minimal polynomial's gf4 planes; its digit
    array, for reports and JSON, is made when minimal_polynomial is read.
    """

    lc_bm: int
    lc_gcd: int
    minimal_planes: tuple
    methods_agree: bool
    theorem_holds: bool

    @property
    def minimal_polynomial(self):
        return gf4.from_planes(*self.minimal_planes)

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

    The gcd route gives LC and the minimal polynomial m; BM on two periods
    gives LC again, and m must generate the sequence (generates), which
    at that LC only the minimal polynomial does. theorem_holds reports
    whether the complexity equals the full period. Raises
    MethodDisagreement when the two routes differ.
    """
    s = np.asarray(symbols, dtype=np.uint8)
    lc_gcd, minpoly = lc_via_gcd(s)
    lc_bm = berlekamp_massey(np.tile(s, 2))
    if lc_bm != lc_gcd or not generates(s, lc_gcd, minpoly):
        raise MethodDisagreement(
            f"BM found {lc_bm}, gcd found {lc_gcd}, or the minimal "
            f"polynomial does not generate the sequence")
    return LinearComplexityReport(
        lc_bm=lc_bm, lc_gcd=lc_gcd,
        minimal_planes=minpoly,
        methods_agree=True, theorem_holds=(lc_gcd == len(s)))


def verify_theorem(system, mapping=DEFAULT_MAPPING, strict=False, seq=None):
    """Build the sequence for a valid mapping, or take seq, which holds it
    already, and check LC = 2 p^m q^n.

    Always raises on method disagreement; with strict=True also raises
    TheoremViolation when the measured complexity falls short, otherwise
    the report carries theorem_holds = False.
    """
    seq = seq or build_sequence(system, mapping)
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
    lc_predicted: int
    lc_gcd: int
    lower_bound: int
    reduced: bool


def analyze_degenerate(system, mapping):
    """Measure a degenerate mapping and check the lower bound.

    The mapping must be structurally sound and actually degenerate, either
    by the mod-8 rule or by a vanishing spectrum regime; a fully valid
    mapping that attains the maximum belongs to verify_theorem instead.
    LC comes from checked_lc, so the gcd route equals predict_lc. Raises
    TheoremViolation if the measured complexity dips below
    (p^m + 1)(q^n + 1)/2.
    """
    seq = build_sequence(system, mapping, allow_degenerate=True)
    c = system.constants
    # build_sequence raised on structure, so these are mod-8 violations
    soft = validate_mapping(c.p, mapping)
    if not soft and spectrum_profile(system, mapping).attains_max:
        raise InvalidParams(
            "mapping is valid and attains the maximum; nothing degenerate")
    lc = checked_lc(seq)
    bound = degenerate_lower_bound(c.p, c.q, c.m, c.n)
    if lc < bound:
        raise TheoremViolation(
            f"complexity {lc} below the floor {bound} "
            f"for mapping {mapping.as_tuple()}")
    return DegenerateReport(
        violations=tuple(soft),
        lc_predicted=lc,
        lc_gcd=lc,
        lower_bound=bound,
        reduced=lc < seq.period,
    )
