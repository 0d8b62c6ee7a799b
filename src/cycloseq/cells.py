"""The cells of Z_N, N = p^m q^n, and the closed form that lives on them.

Every claim about the sequence (its LC, its spectrum S(beta^k), its
character sums) is one about these cells. A family (i, j), 0 <= i <= m,
0 <= j <= n, not both 0, names the modulus p^i q^j (_family_indices: the
mixed grid, then the p-power and the q-power families). Its units split
into two Legendre classes: with r = q on the mixed and q-power families
and r = p on the p-power ones, D_0 holds the squares mod r and D_1 the
other units (_qr_sides). k = p^a q^b l, (a, b) = (v_p(k), v_q(k)) capped
at (m, n), lies in the cell (a, b, [(l|p) = -1], [(l|q) = -1]), a
Legendre bit 0 at its cap: cells yields each live cell with its size,
cell_index maps Z_N onto them, and the partition's labels and every sum
below depend on k only through its cell.

With beta a primitive N-th root of unity, family (i, j) has the sums
T_h = sum over x in D_h of zeta^(k x), zeta = beta^(N / p^i q^j): 0, 1
or a quadratic Gaussian period of p or q in characteristic 2 (Lidl and
Niederreiter, Finite Fields, ch. 5; Ding, Helleseth and Shan, IEEE T-IT
44(3), 1998), {eta_0, eta_1} = {0, 1} where 2 is a square mod the prime
and {alpha, alpha^2} where it is not (eta_pair). cell_char_sums is their
one closed form; verify takes it with the periods measured in F_{4^d}.

The loss rule: as x^(2N) - 1 = (x^N - 1)^2, LC = 2N - sum over k in Z_N
of mu(k), where S(beta^k) = E(k) + O(k), its even- and odd-position
sums, O(k) = beta^k S'(beta^k), and mu(k) = [E = O] (1 + [O = 0]). Each
family adds a T_0 + b T_1 to O and c T_s + d T_(1-s) to E, 2 lying in
D_s; O also has e. _cell_sums writes per cell its size and each bucket's
E << 2 | O, as does cyclotomy's measured bucket_cells; as s = sum v_b 1_b,
_cells_lc gives any mapping's mu per cell by linearity, for predict_lc
over the one table and analysis.bucket_lc over the other.
"""

import functools

import numpy as np

from . import gf4
from .limits import HELD_TABLES
from .numtheory import two_is_square_mod


def _family_indices(m, n):
    # the mixed grid first, then the p-power and the q-power families
    return ([(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
            + [(i, 0) for i in range(1, m + 1)]
            + [(0, j) for j in range(1, n + 1)])


def _qr_sides(r):
    # x mod the odd prime r: 0 on the squares, 1 on other units, 2 at 0
    side = np.ones(r, dtype=np.int8)
    side[np.arange(1, r)**2 % r], side[0] = 0, 2
    return side


def cells(p, q, m, n):
    """Each live cell (a, b, lp, lq) of Z_N with its size, keys ascending.
    The cell holds phi(p^(m-a)) phi(q^(n-b)) / 2^s members, s the number
    of bits below their cap.
    """
    for a in range(m + 1):
        for b in range(n + 1):
            size = ((p - 1) * p**(m - a - 1) if a < m else 1) * (
                (q - 1) * q**(n - b - 1) if b < n else 1) >> (
                (a < m) + (b < n))
            for lp in (0, 1) if a < m else (0,):
                for lq in (0, 1) if b < n else (0,):
                    yield (a, b, lp, lq), size


@functools.lru_cache(maxsize=1)
def cell_index(p, q, m, n):
    """Position in cells' order of the cell of each k in Z_N, k = 0..N-1,
    read-only, in the least unsigned dtype that holds len(cells). The last
    map made is held: build_partition and verify's expected rows share it.
    v_p(k) and v_q(k), capped at m and n, count the strided multiples of
    p^t and q^t that reach k, in place of a % pass per prime power: uint8
    valuations and an int32 unit part, as N < PERIOD_CEILING < 2^31."""
    N = p**m * q**n
    a, b = np.zeros((2, N), dtype=np.uint8)
    for v, r, top in ((a, p, m), (b, q, n)):
        for t in range(1, top + 1):
            v[::r**t] += 1
    l = np.arange(N, dtype=np.int32)
    l //= np.power(p, a, dtype=np.int32) * np.power(q, b, dtype=np.int32)
    lp, lq = _qr_sides(p)[l % p], _qr_sides(q)[l % q]
    lp[a == m], lq[b == n] = 0, 0
    # position by key, dead keys left unset
    keys = [key for key, _ in cells(p, q, m, n)]
    where = np.empty((m + 1, n + 1, 2, 2),
                     dtype=np.min_scalar_type(len(keys)))
    where[tuple(zip(*keys))] = range(len(keys))
    out = where[a, b, lp, lq]
    out.flags.writeable = False
    return out


def eta_pair(r):
    """The Gaussian periods (eta_0, eta_1) of the odd prime r as GF(4)
    digits: (0, 1) where 2 is a square mod r, else (alpha, alpha^2)."""
    return (0, 1) if two_is_square_mod(r) else (2, 3)


def cell_char_sums(p, q, m, n, cell, periods):
    """T_0, T_1 of each family, in _family_indices order, at a k in the
    cell (a, b, lp, lq); periods holds (eta_0, eta_1) of p and of q in any
    form where 1 is 1 and + is XOR.

    Family r^i, at v = v_r(k) and the Legendre bit ns of k's unit part, has
    T_h = 0 when v < i - 1, eta_(h + ns) when v = i - 1, and phi(r^i) / 2
    ones, [r = 3 mod 4], when v >= i. The unit part keeps the other prime's
    power, so ns picks up (q|p)^b on the p-power families and (p|q)^a on
    the q-power ones. A mixed family (i, j) is its Ramanujan sum mod p^i,
    odd iff a = i - 1, times the sums of k p^(-i) at q, twisted by (p|q).
    """
    a, b, lp, lq = cell
    # Euler's criterion: [(q|p) = -1] and [(p|q) = -1]
    q_at_p, p_at_q = (int(pow(x, r // 2, r) != 1) for x, r in ((q, p), (p, q)))
    out = []
    for i, j in _family_indices(m, n):
        r, top, v, ns = ((q, j, b, lq ^ (p_at_q if i else a & p_at_q))
                         if j else (p, i, a, lp ^ (b & q_at_p)))
        if (i and j and a != i - 1) or v < top - 1:
            out += 0, 0
        elif v >= top:
            out += (int(r % 4 == 3),) * 2
        else:
            out += periods[bool(j)][ns], periods[bool(j)][1 - ns]
    return out


# one table per system, which bucket_cells and predict_lc read
@functools.lru_cache(maxsize=HELD_TABLES)
def _cell_sums(p, q, m, n):
    """The closed form's rows (module docstring) at eta_pair's periods:
    T_0, T_1, T_s of cell_char_sums added over the families, T_s taking
    each family's T_h with 2 in D_h, p's side on the p-power families and
    q's on the others. Half has O = 1, a and b O = T_0 and T_1, c and d
    E = T_s and T_(1-s)."""
    periods = [eta_pair(p), eta_pair(q)]
    sides = [not two_is_square_mod(q if j else p)
             for _, j in _family_indices(m, n)]
    out = []
    for key, size in cells(p, q, m, n):
        sums = cell_char_sums(p, q, m, n, key, periods)
        t0 = t1 = ts = 0
        for x0, x1, side in zip(sums[0::2], sums[1::2], sides):
            t0, t1, ts = t0 ^ x0, t1 ^ x1, ts ^ (x1 if side else x0)
        out.append((size, 1, t0, t1, ts << 2, (t0 ^ t1 ^ ts) << 2))
    return tuple(out)


def _bucket_symbols(mapping):
    # one symbol per bucket, in cyclotomy.BUCKETS order
    return 0, mapping.e, mapping.a, mapping.b, mapping.c, mapping.d


# _PAIR_MUL[v][w] is v times both halves of w = E << 2 | O, and _LOSS[w]
# the roots a cell of E << 2 | O = w loses per member: one where E = O,
# two where both vanish
_PAIR_MUL = [[gf4._MUL[v][w >> 2] << 2 | gf4._MUL[v][w & 3] for w in range(16)]
             for v in range(4)]
_LOSS = [(w >> 2 == w & 3) << (w == 0) for w in range(16)]


def _cells_lc(rows, period, mapping):
    # per cell, E << 2 | O is the sum of v_b times each bucket's pair, and
    # the cell loses its size times _LOSS of it
    te, ta, tb, tc, td = (_PAIR_MUL[v] for v in _bucket_symbols(mapping)[1:])
    lost = 0
    for size, we, wa, wb, wc, wd in rows:
        lost += size * _LOSS[te[we] ^ ta[wa] ^ tb[wb] ^ tc[wc] ^ td[wd]]
    return period - lost


def predict_lc(constants, mapping):
    """Exact LC of the sequence, by the loss rule over _cell_sums."""
    c = constants
    return _cells_lc(_cell_sums(c.p, c.q, c.m, c.n), c.period, mapping)
