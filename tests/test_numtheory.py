"""Integer helpers: primitive roots, the two-modulus lift, system constants."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cycloseq.errors import CapExceeded, InvalidParams, NotCoprime
from cycloseq.numtheory import (_lift, build_system_constants, euler_phi,
                                factorize, is_prime, is_primitive_root,
                                mult_order,
                                smallest_odd_primitive_root_mod_p2)

ODD_PRIMES = [r for r in range(3, 120, 2) if is_prime(r)]
ODD = st.integers(-10**6, 10**6).map(lambda v: 2 * v + 1)


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
    with pytest.raises(NotCoprime):
        mult_order(4, 10)
    # order divides phi and is minimal
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randrange(3, 500)
        a = rng.randrange(2, n)
        try:
            k = mult_order(a, n)
        except NotCoprime:
            continue
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


def test_system_constants_example_15():
    c = build_system_constants(3, 5, 1, 1)
    assert (c.g1, c.g2) == (5, 3)
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


def test_constants_rejections():
    with pytest.raises(InvalidParams):
        build_system_constants(3, 3, 1, 1)
    with pytest.raises(InvalidParams):
        build_system_constants(4, 5, 1, 1)
    with pytest.raises(InvalidParams):
        build_system_constants(3, 5, 0, 1)
    with pytest.raises(CapExceeded):
        build_system_constants(3, 5, 9, 9)
