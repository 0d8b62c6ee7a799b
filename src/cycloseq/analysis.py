"""Linear complexity of quaternary sequences by four independent routes.

Route one runs Berlekamp-Massey over GF(4) and returns the shortest LFSR
length L. It keeps Massey's recurrence for the connection polynomial C(x)
but reads each discrepancy off a series instead of computing an inner
product (Sarwate and Shanbhag's reformulation): the coefficient of x^t in
R(x) = C(x) S(x) is the discrepancy of C at t, and each update of C is
made to R alone, so C itself is never formed. A length change writes
out the multiples of the old R by 1/d inline, as one of three fixed
rotations of (v, alpha v, alpha^2 v) chosen by d, so no step multiplies
in the field. A run of zero discrepancies is skipped in one step, and
the loop stops once R has no term left before the end of the input. The
stop is exact for any input, since every later discrepancy is zero and
so L is final; on two periods of a sequence of linear complexity L it
comes after about 2L of the 2P symbols. No length change comes between
a change at t and t = 2L, so every step there adds a multiple of the one
B S: where that window is long, B S has few terms and R many, the steps
are one series division, made in O(log len) big-int steps
(_clear_window).

Route one decides full LC on the N-periodic fold f, the XOR of the 2^a
blocks of length N of one period (P = 2^a N, N odd, F = x^N - 1), whose
polynomial is S mod F:

    LC = P <=> gcd(x^P - 1, S) = 1 <=> gcd(F, S) = 1, as x^P - 1 = F^(2^a);
    S = f mod F, so gcd(F, S) = gcd(F, f), and that is 1 <=> LC(f) = N.

So BM runs on two periods of f, 2N symbols, and where it returns N,
LC = P; otherwise BM runs again on two periods of s for the exact LC (at
odd P, f is s and one run answers). The routes share only
x^P - 1 = F^(2^a): route one XORs digit blocks and runs BM, route two
masks planes and runs Euclid. A false full LC from route two meets a fold
BM below N, whose second run then gives the true LC.

Route two is purely algebraic: for a sequence of period P,
LC = P - deg gcd(x^P - 1, S(x)), and the minimal polynomial, the monic
form of the unique shortest connection polynomial, is (x^P - 1) / gcd.
lc_via_gcd reads LC off the degrees of the gcd's factors G_j (below)
alone; minimal_planes forms their product and the quotient, only where
the minimal polynomial is read, and certifies it there (generates).

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
masks and the fold (gf4.fold) are ANDs, shifts and XORs on S's gf4 bit
planes. The steps stop at the first G_j = 1, so on P = 2N they are at
most two gcds of degree <= N.

Both routes have a step for a short divisor, and the fold of a
construction in which 2 is a square mod both p and q, or mod neither,
needs both. That fold is e at t = 0 and one constant c elsewhere, so
f = (e + c) + c (x^N - 1) / (x - 1): Euclid's second remainder,
(x^N - 1) mod f, has degree 1 under f's N - 1, and BM's length jumps to
about N at t = N with a B S of two terms and a dense window of about N
positions. Digit by digit, each route would take about N steps on N-bit
ints there; gf4.gcd_planes halves the long dividend by x^(2^k) mod b
instead, and BM clears the window by one division. Where 2 is a square
mod exactly one prime, both routes meet a short divisor too, but the
dividend and the window there are sparse (a few thousand terms of about
N), so the digit loops are cheap and the steps save less.

Route three, cells.predict_lc, builds no sequence: the LC of the
construction from (p, q, m, n) and the mapping in closed form, the loss
rule over the cells of Z_N (the cells module). Route four, the bucket
basis, measures E and O on the cells off the paint, with no gcd and no
field: cyclotomy's span-certified bucket_cells, which equals route three's
table, so bucket_lc is the same loss rule (cells._cells_lc) over it.

Where they run: analyze and verify measure by the gcd route, then by BM
(once on the fold at full LC, once more on two periods of s below it),
and require the lengths to agree (analyze_symbols, verify_theorem). Theirs
is the one call of lc_via_gcd, which turns their digits into planes, and
of minimal_planes, whose certificate (generates) runs before BM and is
not needed at full LC: x^P - 1 generates every sequence of period P.
sweep, plain and --degenerate, reads one certified table per system: a
row is one bucket_lc walk, with no Euclid, no planes and no digits. The
gcd route checks the loss rule itself in the tests.
"""

from dataclasses import dataclass

import numpy as np

from . import gf4
from .cells import _cells_lc
from .errors import (InvalidParams, MethodDisagreement, TheoremViolation)
from .sequence import DEFAULT_MAPPING, build_sequence, validate_mapping


def berlekamp_massey(symbols):
    """Length of the shortest LFSR over GF(4) generating the symbol array.

    O(len^2) bit operations at most, in the series form of the module
    docstring, with C itself never formed; a window that _clear_window
    clears costs O(log len) big-int steps, not one per term. Two series
    are kept: R = C S, and B S, where B is C as it was before the last
    length change, made at step `last` with discrepancy b. Both are held
    reversed (bit len - 1 - t for x^t), so the next nonzero discrepancy d,
    at some t > last, is R's top bit: zero discrepancies cost nothing,
    terms past the end of the input fall off the bottom, and R = 0 means
    none is left. With shift = t - last, the step C += (d / b) x^shift B
    is the step R += (d / b) x^shift B S, a right shift of B S on the
    reversed planes, which clears d. A length change makes the old R the
    new B S, with no shift. The multiples of B S by d / b are made when it
    is set, so no step multiplies in the field: as digit d is
    alpha^(d - 1), they are v, alpha v = (hi + lo, hi) and alpha^2 v =
    (lo, hi + lo) in a rotation fixed by b. The leading digit comes from
    the planes' lengths: 1 when lo is longer, else 2 plus lo's top bit.
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
    # each pass clears R's top term, so R reaches 0 after at most one
    # pass per position
    while True:
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
            # No length change comes before t = 2 length, so every step up
            # to there adds a multiple of this B S, and one division makes
            # them all. It is taken where that window holds 256 positions
            # or more, B S has at most one term below its lead per 64 of
            # them, and R has 64 terms or more in it, each a step here.
            if 2 * length - t > 256:
                window = min(2 * length, size) - t - 1
                v1, v0 = times[1]
                lead = size - 1 - t
                terms = (v1 | v0) ^ 1 << lead
                if (window >= max(256, terms.bit_count() << 6)
                        and ((r1 | r0) >> lead - window).bit_count() >= 64):
                    r1, r0 = _clear_window(r1, r0, v1, v0, terms, lead,
                                           lead - window)
            continue
        r1 ^= y1 >> shift
        r0 ^= y0 >> shift
    return length


def _clear_window(r1, r0, v1, v0, terms, lead, base):
    # The steps of berlekamp_massey at t = last + 1 .. 2L - 1, R's bits
    # lead - 1 .. base, all add (d / b) x^(t - last) B S for one B S, so
    # together they add Q V, V = times[1] = 1 + u: its lead 1 at bit lead,
    # u its terms below, each as (i, c), digit c at i bits below the lead.
    # Read the window of R as a series W in z from bit lead - 1 down: Q
    # makes W + Q V vanish mod z^width, so Q = W / (1 + u), and in
    # characteristic 2, 1 / (1 + u) = prod over k of (1 + u^(2^k)).
    # Squaring u doubles each offset and squares each digit, which swaps
    # 2 and 3: c^2 = 1 / c = INV_TABLE[c] for c != 0.
    u = []
    while terms:
        top = terms.bit_length() - 1
        u.append((lead - top, 2 * (v1 >> top & 1) | v0 >> top & 1))
        terms ^= 1 << top
    width = lead - base
    q1, q0 = r1 >> base, r0 >> base
    power = [term for term in u if term[0] < width]
    while power:
        p1, p0 = q1, q0
        for i, c in power:
            s1, s0 = gf4.planes_scale(q1, q0, c)
            p1 ^= s1 >> i
            p0 ^= s0 >> i
        q1, q0 = p1, p0
        power = [(2 * i, gf4.INV_TABLE[c]) for i, c in power if 2 * i < width]
    # R += Q V: Q back at the window's bits, then one shift per term of u
    q1, q0 = q1 << base, q0 << base
    r1, r0 = r1 ^ q1, r0 ^ q0
    for i, c in u:
        s1, s0 = gf4.planes_scale(q1, q0, c)
        r1 ^= s1 >> i
        r0 ^= s0 >> i
    return r1, r0


def lc_via_gcd(symbols):
    """Linear complexity from gcd(x^P - 1, S(x)) for one full period of
    digits, P >= 1, run on their gf4 planes.

    Returns (lc, factors): the gf4 planes of the folded steps' monic G_j
    of the module docstring, in order and stopping before the first
    G_j = 1, and lc = P - sum of deg G_j. The zero sequence has every G_j
    equal to x^N - 1 and lc 0. No product of the G_j is formed and
    nothing is divided: minimal_planes does both, and checks the result.
    """
    s = np.asarray(symbols, dtype=np.uint8)
    if len(s) == 0:
        raise InvalidParams("need at least one symbol")
    if s.max() > 3:
        raise InvalidParams("symbols must be field elements 0..3")
    period, planes = len(s), gf4.to_planes(s)
    twos = (period & -period).bit_length() - 1
    odd, step = period >> twos, 1 << twos
    # the bits t = 0 mod 2^a; as j < 2^a, the bits t with t & j == j are
    # its shifts by the r < 2^a with r & j == j
    every_step = ((1 << period) - 1) // ((1 << step) - 1)
    common = (0, 1 << odd | 1)
    factors = []
    for j in range(step):
        mask = sum(every_step << r for r in range(step) if r & j == j)
        hasse = [gf4.fold(x & mask, odd) for x in planes]
        common = gf4.gcd_planes(*common, *hasse)
        if common == (0, 1):
            break
        factors.append(common)
    # a monic G_j: its top digit 1 sits on the lo plane
    return (period - sum(g0.bit_length() - 1 for _, g0 in factors),
            tuple(factors))


def minimal_planes(symbols, factors):
    """Planes of the monic minimal polynomial m = (x^P - 1) / prod G_j of
    one period of digits, from lc_via_gcd's factors: x^P - 1 if there are
    none, as it generates every sequence of period P, else m once it
    divides exactly and generates the sequence (or MethodDisagreement).
    """
    top = 1 << len(symbols) | 1
    if not factors:
        return 0, top
    divisor = factors[0]
    for g in factors[1:]:
        divisor = gf4.mul_planes(*g, *divisor)
    q1, q0, r1, r0 = gf4.divmod_planes(0, top, *divisor)
    # both monic, so deg m is the difference of their lo planes' lengths
    lc = top.bit_length() - divisor[1].bit_length()
    if r1 | r0 or not generates(symbols, lc, (q1, q0)):
        raise MethodDisagreement(
            "(x^P - 1) / gcd is inexact or does not generate the sequence")
    return q1, q0


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


def bucket_lc(system, mapping):
    """LC of the mapping's sequence off system.bucket_cells, the bucket
    basis (route four above)."""
    return _cells_lc(system.bucket_cells, system.period, mapping)


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

    The gcd route gives LC and the minimal polynomial, which
    minimal_planes certifies; BM gives LC again, on two periods of the
    fold where that reaches its full length N and on two periods of s
    otherwise (module docstring). theorem_holds reports whether the
    complexity equals the full period. Raises MethodDisagreement when the
    two lengths differ.
    """
    s = np.asarray(symbols, dtype=np.uint8)
    lc_gcd, factors = lc_via_gcd(s)
    minpoly = minimal_planes(s, factors)
    period = len(s)
    odd = period >> ((period & -period).bit_length() - 1)
    lc_bm = berlekamp_massey(np.tile(
        np.bitwise_xor.reduce(s.reshape(-1, odd), axis=0), 2))
    if lc_bm == odd:
        lc_bm = period
    elif odd < period:
        lc_bm = berlekamp_massey(np.tile(s, 2))
    if lc_bm != lc_gcd:
        raise MethodDisagreement(f"BM found {lc_bm}, gcd found {lc_gcd}")
    return LinearComplexityReport(
        lc_bm=lc_bm, lc_gcd=lc_gcd, minimal_planes=minpoly,
        methods_agree=True, theorem_holds=(lc_gcd == period))


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
    """Measured complexity of a mapping that breaks the mod-8 constraint;
    lc comes off bucket_cells, which equals the closed form's table."""

    violations: tuple
    lc: int
    lower_bound: int


def analyze_degenerate(system, mapping):
    """Measure a degenerate mapping and check the lower bound.

    The mapping must be structurally sound and actually degenerate, either
    by the mod-8 rule or by its LC falling short of the period; a
    fully valid mapping that attains the maximum belongs to verify_theorem
    instead. LC comes from one bucket_lc walk, whose table equals the
    closed form's. Raises TheoremViolation if the measured complexity dips
    below (p^m + 1)(q^n + 1)/2.
    """
    build_sequence(system, mapping, allow_degenerate=True)
    c = system.constants
    # build_sequence raised on structure, so these are mod-8 violations
    soft = validate_mapping(c.p, mapping)
    lc = bucket_lc(system, mapping)
    if not soft and lc == system.period:
        raise InvalidParams(
            "mapping is valid and attains the maximum; nothing degenerate")
    bound = degenerate_lower_bound(c.p, c.q, c.m, c.n)
    if lc < bound:
        raise TheoremViolation(
            f"complexity {lc} below the floor {bound} "
            f"for mapping {mapping.as_tuple()}")
    return DegenerateReport(
        violations=tuple(soft),
        lc=lc,
        lower_bound=bound,
    )
