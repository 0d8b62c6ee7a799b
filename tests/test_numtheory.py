"""Integer helpers: primitive roots, the two-modulus lift, system constants."""

import ast
import itertools
import math
import pathlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cycloseq.errors import CapExceeded, InvalidParams
from cycloseq.limits import (DEFAULT_PARAM_CAP, PERIOD_CEILING, check_limit,
                             check_period)
from cycloseq.numtheory import (_lift, build_system_constants, euler_phi,
                                factorize, is_prime, mult_order,
                                smallest_odd_primitive_root_mod_p2)

ODD_PRIMES = [r for r in range(3, 120, 2) if is_prime(r)]
ODD = st.integers(-10**6, 10**6).map(lambda v: 2 * v + 1)


def is_primitive_root(a, n):
    # a generates the units mod n, for n with a cyclic unit group
    return mult_order(a, n) == euler_phi(n)


@given(st.lists(st.sampled_from(ODD_PRIMES), min_size=2, max_size=2,
                unique=True),
       st.integers(1, 4), st.integers(1, 4), ODD, ODD)
def test_lift_solves_both_congruences(primes, m, n, a, b):
    P, Q = primes[0]**m, primes[1]**n
    x = _lift(a, b, P, Q)
    assert 0 <= x < 2 * P * Q
    assert (x - a) % (2 * P) == 0
    assert (x - b) % (2 * Q) == 0


def test_primality_and_phi():
    assert [p for p in range(2, 30) if is_prime(p)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert euler_phi(1) == 1
    assert euler_phi(45) == 24
    assert factorize(720) == {2: 4, 3: 2, 5: 1}


def test_mult_order():
    assert mult_order(4, 15) == 2
    assert mult_order(4, 21) == 3
    assert mult_order(4, 45) == 6
    with pytest.raises(InvalidParams, match="^4 is not a unit modulo 10$"):
        mult_order(4, 10)
    # order divides phi and is minimal
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randrange(3, 500)
        a = rng.randrange(2, n)
        if math.gcd(a, n) != 1:
            with pytest.raises(InvalidParams, match="is not a unit modulo"):
                mult_order(a, n)
            continue
        k = mult_order(a, n)
        assert pow(a, k, n) == 1
        for r in factorize(k):
            assert pow(a, k // r, n) != 1


def test_smallest_odd_primitive_roots():
    # least odd primitive root >= 3 modulo p^2
    assert smallest_odd_primitive_root_mod_p2(3) == 5
    assert smallest_odd_primitive_root_mod_p2(5) == 3
    assert smallest_odd_primitive_root_mod_p2(7) == 3
    for p in (3, 5, 7, 11, 13):
        r = smallest_odd_primitive_root_mod_p2(p)
        assert r % 2 == 1 and r >= 3
        assert is_primitive_root(r, p * p)


def test_smallest_odd_primitive_root_matches_the_order_search():
    # the least odd r >= 3 whose multiplicative order mod p^2 is phi(p^2)
    # 5 generates the units mod 40487 but not mod 40487^2
    for p in [r for r in range(3, 400, 2) if is_prime(r)] + [40487]:
        want = next(r for r in range(3, p * p, 2)
                    if r % p and is_primitive_root(r, p * p))
        assert smallest_odd_primitive_root_mod_p2(p) == want, p
    assert smallest_odd_primitive_root_mod_p2(40487) == 13


def test_system_constants_example_15():
    c = build_system_constants(3, 5, 1, 1)
    assert [smallest_odd_primitive_root_mod_p2(r) for r in (3, 5)] == [5, 3]
    assert c.g == 23 and c.y == 11
    assert c.e_ij[(1, 1)] == 2 and c.d_ij[(1, 1)] == 4
    assert c.half_period == 15 and c.period == 30
    # g is a common primitive root of every p^i, 2p^i, q^j, 2q^j
    for mod in (3, 9, 5, 25, 6, 18, 10, 50):
        pass  # m = n = 1 here; the m=2 case below exercises the towers
    for mod in (3, 5, 6, 10):
        assert is_primitive_root(c.g, mod)
    # y = 1 mod 2q^n and y = g mod 2p^m
    assert c.y % 10 == 1 and c.y % 6 == c.g % 6


def test_system_constants_example_21():
    c = build_system_constants(3, 7, 1, 1)
    assert c.g == 17 and c.y == 29
    assert c.e_ij[(1, 1)] == 2 and c.d_ij[(1, 1)] == 6


@pytest.mark.parametrize("params, g, y", [
    ((5, 3, 2, 1), 53, 103), ((7, 3, 1, 2), 59, 73), ((17, 7, 1, 1), 3, 71),
    ((3, 5, 4, 3), 8753, 17501)])
def test_system_constants_pinned(params, g, y):
    c = build_system_constants(*params)
    assert (c.g, c.y) == (g, y)


def test_system_constants_towers():
    c = build_system_constants(3, 5, 2, 1)
    for mod in (3, 9, 5, 6, 18, 10):
        assert is_primitive_root(c.g, mod)
    assert c.d_ij[(2, 1)] * c.e_ij[(2, 1)] == euler_phi(45)
    assert c.d_ij[(2, 1)] == mult_order(c.g, 45)
    # the prime-power families: i = 0 or j = 0, with e_ij = 1
    assert sorted(c.d_ij) == [(0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
    for (i, j), mod in {(1, 0): 3, (2, 0): 9, (0, 1): 5}.items():
        assert c.e_ij[(i, j)] == 1
        assert c.d_ij[(i, j)] == mult_order(c.g, mod) == euler_phi(mod)


def test_family_orders_match_euler_phi():
    # e_ij = gcd(phi(p^i), phi(q^j)) and d_ij = lcm, the orders taken in
    # closed form: every ordered pair of primes below 60 at (m, n) up to
    # (3, 2); a period over the default cap raises before any order
    built = capped = 0
    for p, q in itertools.permutations([r for r in ODD_PRIMES if r < 60], 2):
        for m, n in itertools.product((1, 2, 3), (1, 2)):
            if 2 * p**m * q**n > DEFAULT_PARAM_CAP:
                with pytest.raises(CapExceeded):
                    build_system_constants(p, q, m, n)
                capped += 1
                continue
            c = build_system_constants(p, q, m, n)
            assert sorted(c.e_ij) == sorted(c.d_ij) == [
                (i, j) for i in range(m + 1) for j in range(n + 1) if i or j]
            for (i, j), e in c.e_ij.items():
                op, oq = euler_phi(p**i), euler_phi(q**j)
                assert (e, c.d_ij[i, j]) == (math.gcd(op, oq),
                                             math.lcm(op, oq)), (p, q, i, j)
            built += 1
    assert built + capped == 16 * 15 * 6 and built and capped


def test_constants_rejections():
    with pytest.raises(InvalidParams):
        build_system_constants(3, 3, 1, 1)
    with pytest.raises(InvalidParams):
        build_system_constants(4, 5, 1, 1)
    with pytest.raises(InvalidParams):
        build_system_constants(3, 5, 0, 1)
    with pytest.raises(CapExceeded):
        build_system_constants(3, 5, 9, 9)


def test_period_ceiling_bounds_every_cap():
    # 2 * 3^19 * 5 = 11 622 614 670 passes a cap of 10^23 but not the
    # ceiling, under which a product of two residues is exact in int64
    with pytest.raises(CapExceeded) as info:
        build_system_constants(3, 5, 19, 1, cap=10**23)
    assert str(info.value) == ("period 2 * 3^19 * 5^1 exceeds the period "
                               "ceiling 2147483647")
    # a cap at or under the ceiling is named as before
    with pytest.raises(CapExceeded, match="exceeds cap 2147483647$"):
        build_system_constants(3, 5, 19, 1, cap=PERIOD_CEILING)
    # 2 * 3^17 * 5 = 1 291 401 630 is under it: the constants, no tables
    c = build_system_constants(3, 5, 17, 1, cap=10**23)
    assert c.period == 1_291_401_630 < PERIOD_CEILING
    assert (c.d_ij[17, 1], c.e_ij[17, 1]) == (4 * 3**16, 2)


def test_check_limit_words_every_cap():
    # at the limit passes; one over raises "<what> <value> exceeds <bound>
    # <limit>", shown standing for the value when given
    check_limit("N =", 5000, 5000, "the verification cap")
    with pytest.raises(CapExceeded) as info:
        check_limit("N =", 5001, 5000, "the verification cap")
    assert str(info.value) == "N = 5001 exceeds the verification cap 5000"
    with pytest.raises(CapExceeded) as info:
        check_limit("period", 90, 30, "cap", shown="2 * 3^2 * 5^1")
    assert str(info.value) == "period 2 * 3^2 * 5^1 exceeds cap 30"
    # check_period names the lower of the cap and the ceiling
    check_period(PERIOD_CEILING, 10**23)
    for cap, line in ((PERIOD_CEILING, f"cap {PERIOD_CEILING}"),
                      (PERIOD_CEILING + 1,
                       f"the period ceiling {PERIOD_CEILING}"),
                      (10, "cap 10")):
        with pytest.raises(CapExceeded) as info:
            check_period(PERIOD_CEILING + 1, cap)
        assert str(info.value) == (f"period {PERIOD_CEILING + 1} exceeds "
                                   f"{line}"), cap


def test_cap_exceeded_has_one_raise_site():
    # every CapExceeded of the package is made in limits.check_limit
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "cycloseq"

    def makes_cap_exceeded(node):
        return isinstance(node, ast.Call) and "CapExceeded" in (
            getattr(node.func, "id", ""), getattr(node.func, "attr", ""))

    sites = []
    for path in sorted(src.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sites += [f"{path.stem}.{func.name}" for node in ast.walk(func)
                          if makes_cap_exceeded(node)]
    assert sites == ["limits.check_limit"]
