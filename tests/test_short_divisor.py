"""The short-divisor steps of both LC routes against the digit loops they
stand in for.

gf4.gcd_planes halves a dividend that is long next to its divisor
(gf4._halve), and analysis.berlekamp_massey clears a window between
length changes by one series division (analysis._clear_window).
_reference_gcd and _reference_bm below are the two loops as they stood
before those steps, their code unchanged: every answer must equal theirs.

Equal answers alone would miss a step that is wrong but harmless, since
the digit loop after it finishes any work it leaves: a window cleared
only in part, or a remainder left long. So the spies of `steps` check
each call as it returns: _clear_window must zero R up to the end of its
window, which must be t = 2L for the length L of the prefix it follows,
and _halve must return a short polynomial equal to a mod b. They also
count the calls, which shows where the steps run: on the fold of every
construction whose primes give 2 the same quadratic character, and on no
dense random input. The last test states the shape of the fold that both
steps rely on.
"""

import contextlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_MAPPINGS, benchmark_systems
from cycloseq import analysis, gf4
from cycloseq.analysis import analyze_symbols, berlekamp_massey
from cycloseq.cyclotomy import build_system
from cycloseq.errors import InvalidParams
from cycloseq.numtheory import two_is_square_mod
from cycloseq.sequence import DEFAULT_MAPPING, build_sequence

# Berlekamp-Massey as it stood before _clear_window
def _reference_bm(symbols):
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


# gcd_planes as it stood before _halve
def _reference_gcd(a1, a0, b1, b0):
    if not (a1 | a0 | b1 | b0):
        raise InvalidParams("gcd(0, 0) is undefined")
    while b1 | b0:
        # b made monic inline: times alpha when it leads with alpha^2,
        # times alpha^2 when it leads with alpha; mix = hi + lo follows.
        # Scaling the multiples instead gives the same gcd but carries
        # non-monic remainders, whose planes are often both long where a
        # monic one has a short plane, and so runs slower.
        size, top = b0.bit_length(), b1.bit_length()
        mix = b1 ^ b0
        if size <= top:
            if b0 >> (top - 1):
                b1, b0, mix = mix, b1, b0
            else:
                b1, b0, mix = b0, mix, b1
            size = top
        # a mod b, no quotient: a's leading digit d cancels against d x^k b,
        # which is b, alpha b = (mix, b1) or alpha^2 b = (b0, mix)
        while True:
            low, top = a0.bit_length(), a1.bit_length()
            if low > top:
                shift = low - size
                if shift < 0:
                    break
                a1 ^= b1 << shift
                a0 ^= b0 << shift
            else:
                shift = top - size
                if shift < 0:
                    break
                if a0 >> (top - 1):
                    a1 ^= b0 << shift
                    a0 ^= mix << shift
                else:
                    a1 ^= mix << shift
                    a0 ^= b1 << shift
        a1, a0, b1, b0 = b1, b0, a1, a0
    return gf4.monic_planes(a1, a0)


class _Steps:
    """Checking spies on _clear_window and _halve; `symbols` is the input
    of the Berlekamp-Massey run under test, for the window check."""

    def __init__(self, patch):
        self.calls = {"window": 0, "halve": 0}
        self.symbols = None
        clear, halve = analysis._clear_window, gf4._halve

        def checked_clear(r1, r0, v1, v0, terms, lead, base):
            r1, r0 = clear(r1, r0, v1, v0, terms, lead, base)
            assert not (r1 | r0) >> base, "window left uncleared"
            if self.symbols is not None:
                size = len(self.symbols)
                t = size - 1 - lead
                length = _reference_bm(self.symbols[:t + 1])
                assert base == size - min(2 * length, size), \
                    "window does not end at t = 2L"
            self.calls["window"] += 1
            return r1, r0

        def checked_halve(a1, a0, b1, b0, size, length):
            h1, h0 = halve(a1, a0, b1, b0, size, length)
            assert (gf4.divmod_planes(h1, h0, b1, b0)[2:]
                    == gf4.divmod_planes(a1, a0, b1, b0)[2:]), "not a mod b"
            # a few digits per level are left, about deg b each
            assert max(h1.bit_length(), h0.bit_length()) \
                < size * (4 + length.bit_length()), "dividend left long"
            self.calls["halve"] += 1
            return h1, h0

        patch.setattr(analysis, "_clear_window", checked_clear)
        patch.setattr(gf4, "_halve", checked_halve)


@contextlib.contextmanager
def checked_steps():
    with pytest.MonkeyPatch.context() as patch:
        yield _Steps(patch)


@pytest.fixture
def steps():
    with checked_steps() as spies:
        yield spies


def _lfsr(rng, size):
    # s_t = c_1 s_(t-1) + ... + c_L s_(t-L) over GF(4), L <= 8, c_L != 0
    taps = list(rng.integers(0, 4, int(rng.integers(1, 9))))
    taps[-1] = int(rng.integers(1, 4))
    out = list(rng.integers(0, 4, len(taps)))
    while len(out) < size:
        digit = 0
        for i, c in enumerate(taps, 1):
            digit ^= gf4.MUL_TABLE[c, out[-i]]
        out.append(digit)
    return np.array(out[:size], dtype=np.uint8)


def _symbols(kind, seed, size):
    """size digits of one kind, from seed."""
    rng = np.random.default_rng(seed)
    if kind == "dense":
        return rng.integers(0, 4, size).astype(np.uint8)
    if kind == "sparse":
        return ((rng.random(size) < 0.02)
                * rng.integers(1, 4, size)).astype(np.uint8)
    if kind == "constant":
        # one digit everywhere but at one to four positions
        s = np.full(size, rng.integers(0, 4), dtype=np.uint8)
        spots = rng.integers(0, size, int(rng.integers(1, 5)))
        s[spots] = rng.integers(0, 4, len(spots))
        return s
    if kind == "periodic":
        # a short period, one digit changed
        s = np.resize(rng.integers(0, 4, int(rng.integers(1, 41))),
                      size).astype(np.uint8)
        s[rng.integers(0, size)] ^= rng.integers(1, 4)
        return s
    return _lfsr(rng, size)


KINDS = ("dense", "sparse", "constant", "periodic", "lfsr")


@st.composite
def long_inputs(draw):
    """One or two periods of a kind of input, each period longer than the
    256 digits or positions below which neither step runs."""
    s = _symbols(draw(st.sampled_from(KINDS)), draw(st.integers(0, 2**32)),
                 draw(st.integers(257, 2500)))
    return np.tile(s, draw(st.integers(1, 2)))


@settings(deadline=None, max_examples=200)
@given(long_inputs())
def test_bm_matches_the_digit_loop(symbols):
    with checked_steps() as steps:
        steps.symbols = symbols
        assert berlekamp_massey(symbols) == _reference_bm(symbols)


@st.composite
def long_short_pairs(draw):
    """(a, b) planes: a long, of a kind, b at most 1/64 of its length,
    both sharing a random factor at times so that the gcd is not 1."""
    a = gf4.to_planes(_symbols(draw(st.sampled_from(KINDS)),
                               draw(st.integers(0, 2**32)),
                               draw(st.integers(257, 4000))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    length = max(a[0].bit_length(), a[1].bit_length())
    b = gf4.to_planes(rng.integers(0, 4, int(rng.integers(
        2, max(3, length // 64 + 1)))))
    if draw(st.booleans()):
        g = gf4.to_planes(rng.integers(0, 4, int(rng.integers(2, 6))))
        a, b = gf4.mul_planes(*g, *a), gf4.mul_planes(*g, *b)
    return a, b


@settings(deadline=None, max_examples=200)
@given(long_short_pairs())
def test_gcd_planes_matches_the_digit_loop(pair):
    a, b = pair
    if not any(a + b):
        return
    want = _reference_gcd(*a, *b)
    with checked_steps():
        assert gf4.gcd_planes(*a, *b) == want
        assert gf4.gcd_planes(*b, *a) == want


def _fold(symbols):
    odd = len(symbols) >> ((len(symbols) & -len(symbols)).bit_length() - 1)
    return np.bitwise_xor.reduce(symbols.reshape(-1, odd), axis=0)


# N >= 257, so both steps can run on the fold: (3, 5, 3, 2) and (7, 41)
# give 2 one character mod both primes, (3, 7, 2, 2) and (7, 11, 1, 2)
# opposite ones
BOTH_CHARACTERS = ((3, 5, 3, 2), (7, 41, 1, 1), (3, 7, 2, 2), (7, 11, 1, 2))


@pytest.mark.parametrize("params", BOTH_CHARACTERS,
                         ids=lambda p: ",".join(map(str, p)))
def test_both_routes_match_the_digit_loops_on_all_mappings(steps, params):
    system = build_system(*params)
    for mapping in ALL_MAPPINGS:
        s = build_sequence(system, mapping, allow_degenerate=True).symbols
        fold = _fold(s)
        for symbols in (np.tile(fold, 2), np.tile(s, 2)):
            steps.symbols = symbols
            assert berlekamp_massey(symbols) == _reference_bm(symbols)
        x_n_1 = (0, 1 << len(fold) | 1)
        want = _reference_gcd(*x_n_1, *gf4.to_planes(fold))
        assert gf4.gcd_planes(*x_n_1, *gf4.to_planes(fold)) == want
        assert gf4.gcd_planes(*gf4.to_planes(fold), *x_n_1) == want
    if _same_character(*params[:2]):
        assert steps.calls["window"] and steps.calls["halve"]


def _same_character(p, q):
    return two_is_square_mod(p) == two_is_square_mod(q)


@pytest.mark.parametrize(
    "params", [s for s in benchmark_systems() if _same_character(*s[:2])],
    ids=lambda p: ",".join(map(str, p)))
def test_both_steps_run_on_every_same_character_fold(steps, params):
    s = build_sequence(build_system(*params), DEFAULT_MAPPING).symbols
    steps.symbols = np.tile(_fold(s), 2)
    report = analyze_symbols(s)
    assert report.lc_bm == report.lc_gcd == len(s)
    assert steps.calls["window"] == 1 and steps.calls["halve"] >= 1


def test_neither_step_runs_on_dense_random_input(steps):
    rng = np.random.default_rng(2)
    for size in (300, 1001, 2048, 4000):
        s = rng.integers(0, 4, size).astype(np.uint8)
        steps.symbols = np.tile(s, 2)
        berlekamp_massey(steps.symbols)
        analyze_symbols(s)
        gf4.gcd_planes(*gf4.to_planes(s), *gf4.to_planes(s[::-1]))
    assert steps.calls == {"window": 0, "halve": 0}


# ordered pairs of primes from 3 to 43 at (m, n) = (1, 1), (2, 1), (1, 2)
# with P <= 60 000: 208 systems of each kind of character and 212 of the
# other
_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
SURVEY = tuple((p, q, m, n)
               for p, q in itertools.permutations(_PRIMES, 2)
               for m, n in ((1, 1), (2, 1), (1, 2))
               if 2 * p**m * q**n <= 60000)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([s for s in SURVEY if _same_character(*s[:2])]),
       st.sampled_from([s for s in SURVEY if not _same_character(*s[:2])]))
def test_fold_is_constant_off_zero_exactly_when_two_has_one_character(
        same, opposite):
    # the shape both steps rely on: where 2 is a square mod both primes or
    # mod neither, every mapping's fold is e at t = 0 and one nonzero c
    # elsewhere; where it is a square mod exactly one, no mapping's is
    for params, shaped in ((same, True), (opposite, False)):
        system = build_system(*params)
        for mapping in ALL_MAPPINGS:
            fold = _fold(build_sequence(system, mapping,
                                        allow_degenerate=True).symbols)
            rest = fold[1:]
            constant = bool(rest[0]) and bool((rest == rest[0]).all())
            assert constant == shaped, (params, mapping.as_tuple())
