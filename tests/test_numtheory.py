"""Integer helpers: gcd, CRT, primitive roots, system constants."""

import random

import pytest

from cycloseq.errors import (CapExceeded, IncompatibleCongruences,
                             InvalidParams, NotCoprime)
from cycloseq.numtheory import (Congruence, build_system_constants, crt_solve,
                                euler_phi, extended_gcd, factorize, is_prime,
                                is_primitive_root, mult_order,
                                smallest_odd_primitive_root_mod_p2)


def test_congruence_validates():
    c = Congruence(residue=5, modulus=6)
    assert (c.residue, c.modulus) == (5, 6)
    with pytest.raises(InvalidParams):
        Congruence(residue=0, modulus=1)
    with pytest.raises(InvalidParams):
        Congruence(residue=-1, modulus=5)
    with pytest.raises(InvalidParams):
        Congruence(residue=5, modulus=5)


def test_extended_gcd_worked_examples():
    assert extended_gcd(6, 10) == (2, 2, -1)
    assert extended_gcd(0, 7) == (7, 0, 1)
    with pytest.raises(InvalidParams):
        extended_gcd(0, 0)


def test_extended_gcd_bezout_random():
    rng = random.Random(20240817)
    for _ in range(300):
        a = rng.randrange(-10**6, 10**6)
        b = rng.randrange(-10**6, 10**6)
        if a == 0 and b == 0:
            continue
        g, u, v = extended_gcd(a, b)
        assert g > 0
        assert a % g == 0 and b % g == 0
        assert u * a + v * b == g


def test_crt_examples():
    merged = crt_solve([Congruence(5, 6), Congruence(3, 10)])
    assert merged == Congruence(23, 30)
    with pytest.raises(IncompatibleCongruences):
        crt_solve([Congruence(1, 2), Congruence(0, 2)])
    with pytest.raises(InvalidParams):
        crt_solve([])


def test_crt_random_consistency():
    rng = random.Random(7)
    for _ in range(200):
        mods = [rng.randrange(2, 50) for _ in range(3)]
        x = rng.randrange(10**6)
        congs = [Congruence(x % m, m) for m in mods]
        merged = crt_solve(congs)
        for c in congs:
            assert merged.residue % c.modulus == c.residue
        assert 0 <= merged.residue < merged.modulus


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
