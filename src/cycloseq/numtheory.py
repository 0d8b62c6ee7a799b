"""Exact integer number theory for the sequence construction.

Everything runs on arbitrary-precision Python ints. Primality is
deterministic trial division: inputs are desk-scale by design, enforced by
the parameter cap (2 p^m q^n <= 10**7 unless overridden), so there is no
need for probabilistic tests.

The module ends in build_system_constants, which derives the full constant
set for a parameter choice (p, q, m, n): the least odd primitive roots g1,
g2 modulo p^2 and q^2, their common lift g, the partial lift y that is
trivial on the q side, and the order tables e_ij / d_ij.
"""

import math
from dataclasses import dataclass, field

from .errors import CapExceeded, IncompatibleCongruences, InvalidParams, NotCoprime

DEFAULT_PARAM_CAP = 10**7


@dataclass(frozen=True)
class Congruence:
    """x = residue (mod modulus), stored reduced: 0 <= residue < modulus."""

    residue: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise InvalidParams(f"congruence modulus must be >= 2, got {self.modulus}")
        if not 0 <= self.residue < self.modulus:
            raise InvalidParams(
                f"residue {self.residue} is not reduced modulo {self.modulus}")


def extended_gcd(a, b):
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    if a == 0 and b == 0:
        raise InvalidParams("extended_gcd(0, 0) is undefined")
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def crt_solve(congruences):
    """Combine congruences into a single one modulo the lcm of the moduli.

    The system is solvable iff every pair agrees modulo the gcd of its
    moduli; a clash raises IncompatibleCongruences naming the pair.
    """
    if not congruences:
        raise InvalidParams("crt_solve needs at least one congruence")
    acc_r, acc_m = congruences[0].residue, congruences[0].modulus
    for c in congruences[1:]:
        g, u, _ = extended_gcd(acc_m, c.modulus)
        if (c.residue - acc_r) % g != 0:
            raise IncompatibleCongruences(
                f"x = {acc_r} (mod {acc_m}) clashes with "
                f"x = {c.residue} (mod {c.modulus}): residues differ mod {g}")
        lcm = acc_m // g * c.modulus
        step = (c.residue - acc_r) // g * u % (c.modulus // g)
        acc_r = (acc_r + acc_m * step) % lcm
        acc_m = lcm
    return Congruence(acc_r, acc_m)


def is_prime(n):
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


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
        raise NotCoprime(f"{a} is not a unit modulo {n}")
    order = euler_phi(n)
    for p in factorize(order):
        while order % p == 0 and pow(a, order // p, n) == 1:
            order //= p
    return order


def is_primitive_root(a, n):
    """True iff a generates the units mod n.

    Meaningful when the unit group is cyclic (n in {2, 4, p^k, 2 p^k});
    the caller is responsible for that shape.
    """
    return mult_order(a, n) == euler_phi(n)


def two_is_square_mod(r):
    """True iff 2 is a square modulo the odd prime r: r = +/-1 (mod 8)."""
    return r % 8 in (1, 7)


def smallest_odd_primitive_root_mod_p2(p):
    """Least odd r >= 3 that is a primitive root mod p**2.

    Such an r is then automatically a primitive root mod p^i and 2 p^i for
    every i >= 1, which is what the common-lift construction needs.
    """
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise InvalidParams(f"expected an odd prime, got {p}")
    r = 3
    while True:
        if r % p != 0 and is_primitive_root(r, p * p):
            return r
        r += 2


@dataclass(frozen=True)
class SystemConstants:
    """Derived constants for one (p, q, m, n) parameter choice.

    g is a common primitive root of all moduli p^i, 2p^i, q^j, 2q^j in
    range; y lifts g on the p side and 1 on the q side. e_ij and d_ij are
    keyed by the family index (i, j) with 0 <= i <= m, 0 <= j <= n, not
    both 0; d_ij is the order of g modulo p^i q^j, |units| = d_ij * e_ij,
    and e_ij = 1 on the prime-power families (i = 0 or j = 0).
    """

    p: int
    q: int
    m: int
    n: int
    g1: int
    g2: int
    g: int
    y: int
    e_ij: dict = field(repr=False)
    d_ij: dict = field(repr=False)

    @property
    def half_period(self):
        return self.p**self.m * self.q**self.n

    @property
    def period(self):
        return 2 * self.half_period


def build_system_constants(p, q, m, n, cap=DEFAULT_PARAM_CAP):
    """Validate parameters and derive the full constant set."""
    for v, name in ((p, "p"), (q, "q")):
        if v < 3 or v % 2 == 0 or not is_prime(v):
            raise InvalidParams(f"{name} must be an odd prime, got {v}")
    if p == q:
        raise InvalidParams("p and q must be distinct")
    if m < 1 or n < 1:
        raise InvalidParams(f"m and n must be >= 1, got m={m}, n={n}")
    period = 2 * p**m * q**n
    if period > cap:
        raise CapExceeded(f"period {period} exceeds cap {cap}")

    g1 = smallest_odd_primitive_root_mod_p2(p)
    g2 = smallest_odd_primitive_root_mod_p2(q)
    mp, mq = 2 * p**m, 2 * q**n
    g = crt_solve([Congruence(g1 % mp, mp), Congruence(g2 % mq, mq)]).residue
    y = crt_solve([Congruence(g % mp, mp), Congruence(1, mq)]).residue

    e_ij, d_ij = {}, {}
    for i in range(m + 1):
        for j in range(n + 1):
            if i or j:
                op, oq = euler_phi(p**i), euler_phi(q**j)
                e = math.gcd(op, oq)
                e_ij[(i, j)] = e
                d_ij[(i, j)] = op * oq // e
    return SystemConstants(p=p, q=q, m=m, n=n, g1=g1, g2=g2, g=g, y=y,
                           e_ij=e_ij, d_ij=d_ij)
