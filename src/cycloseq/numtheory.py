"""Exact integer number theory for the sequence construction.

Everything runs on arbitrary-precision Python ints. Primality is
deterministic trial division: the caps of the limits module keep inputs
desk-scale, so there is no need for probabilistic tests.

The module ends in build_system_constants, which derives the full constant
set for a parameter choice (p, q, m, n): the common lift g of the least
odd primitive roots modulo p^2 and q^2, the partial lift y that is
trivial on the q side, and the order tables e_ij / d_ij.
"""

import functools
import math
import types
from dataclasses import dataclass, field

from .errors import InvalidParams
from .limits import DEFAULT_PARAM_CAP, HELD_TABLES, check_period


def is_prime(n):
    """Deterministic primality test, by factorize's trial division."""
    return n >= 2 and factorize(n) == {n: 1}


def factorize(n):
    """Trial-division factorization: {prime: exponent}, n >= 1."""
    if n < 1:
        raise InvalidParams(f"factorize needs n >= 1, got {n}")
    out = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n):
    """Count of units modulo n."""
    if n < 1:
        raise InvalidParams(f"euler_phi needs n >= 1, got {n}")
    result = n
    for p in factorize(n):
        result -= result // p
    return result


def mult_order(a, n):
    """Least t >= 1 with a**t = 1 (mod n)."""
    if n < 2:
        raise InvalidParams(f"mult_order needs modulus >= 2, got {n}")
    a %= n
    if math.gcd(a, n) != 1:
        raise InvalidParams(f"{a} is not a unit modulo {n}")
    order = euler_phi(n)
    for p in factorize(order):
        while order % p == 0 and pow(a, order // p, n) == 1:
            order //= p
    return order


def two_is_square_mod(r):
    """True iff 2 is a square modulo the odd prime r: r = +/-1 (mod 8)."""
    return r % 8 in (1, 7)


# one search per prime: a sweep builds many systems over few primes
@functools.lru_cache(maxsize=HELD_TABLES)
def smallest_odd_primitive_root_mod_p2(p):
    """Least odd r >= 3 that is a primitive root mod p**2.

    Such an r is then automatically a primitive root mod p^i and 2 p^i for
    every i >= 1, which is what the common-lift construction needs.
    """
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise InvalidParams(f"expected an odd prime, got {p}")
    # a unit r generates unless r^(p(p - 1)/f) = 1 for a prime f | p(p - 1)
    powers = [p - 1] + [p * (p - 1) // f for f in factorize(p - 1)]
    r = 3
    while r % p == 0 or any(pow(r, e, p * p) == 1 for e in powers):
        r += 2
    return r


def _lift(a, b, P, Q):
    """The x in [0, 2PQ) with x = a (mod 2P) and x = b (mod 2Q).

    The Chinese remainder theorem for the two moduli 2P and 2Q, which share
    only the factor 2: P and Q are coprime and odd, a and b are odd. Then
    x = a + 2P t, where P t = (b - a) / 2 (mod Q).
    """
    return (a + 2 * P * ((b - a) // 2 * pow(P, -1, Q) % Q)) % (2 * P * Q)


@dataclass(frozen=True)
class SystemConstants:
    """Derived constants for one (p, q, m, n) parameter choice.

    g is a common primitive root of all moduli p^i, 2p^i, q^j, 2q^j in
    range; y lifts g on the p side and 1 on the q side. e_ij and d_ij are
    keyed by the family index (i, j) with 0 <= i <= m, 0 <= j <= n, not
    both 0; d_ij is the order of g modulo p^i q^j, |units| = d_ij * e_ij,
    and e_ij = 1 on the prime-power families (i = 0 or j = 0). Both are
    read-only mappings.
    """

    p: int
    q: int
    m: int
    n: int
    g: int
    y: int
    e_ij: types.MappingProxyType = field(repr=False)
    d_ij: types.MappingProxyType = field(repr=False)

    @property
    def half_period(self):
        return self.p**self.m * self.q**self.n

    @property
    def period(self):
        return 2 * self.half_period


def build_system_constants(p, q, m, n, cap=DEFAULT_PARAM_CAP):
    """Validate parameters and derive the full constant set.

    check_period sees each partial product of the period, before trial
    division, so a huge p or exponent fails fast.
    """
    for v, name in ((p, "p"), (q, "q")):
        if v < 3 or v % 2 == 0:
            raise InvalidParams(f"{name} must be an odd prime, got {v}")
    if p == q:
        raise InvalidParams("p and q must be distinct")
    if m < 1 or n < 1:
        raise InvalidParams(f"m and n must be >= 1, got m={m}, n={n}")
    period, shown = 2, f"2 * {p}^{m} * {q}^{n}"
    for count in range(1, m + n + 1):
        period *= p if count <= m else q
        check_period(period, cap, shown if count < m + n else None)
    for v, name in ((p, "p"), (q, "q")):
        if not is_prime(v):
            raise InvalidParams(f"{name} must be an odd prime, got {v}")

    P, Q = p**m, q**n
    g = _lift(smallest_odd_primitive_root_mod_p2(p),
              smallest_odd_primitive_root_mod_p2(q), P, Q)
    y = _lift(g, 1, P, Q)

    e_ij, d_ij = {}, {}
    for i in range(m + 1):
        for j in range(n + 1):
            if i or j:
                op, oq = ((r - 1) * r**(k - 1) if k else 1
                          for r, k in ((p, i), (q, j)))
                e = math.gcd(op, oq)
                e_ij[(i, j)] = e
                d_ij[(i, j)] = op * oq // e
    return SystemConstants(p=p, q=q, m=m, n=n, g=g, y=y,
                           e_ij=types.MappingProxyType(e_ij),
                           d_ij=types.MappingProxyType(d_ij))
