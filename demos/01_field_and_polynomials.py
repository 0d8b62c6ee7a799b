#!/usr/bin/env python3
# Tour of the GF(4) layer: element arithmetic, polynomials on bit planes,
# gcd, and the x^n - 1 factor structure that drives the complexity method.

from cycloseq import gf4

NAMES = {0: "0", 1: "1", 2: "alpha", 3: "alpha+1"}


def digits(planes):
    # digits are constant-term first: "121" is 1 + alpha x + x^2
    return gf4.poly_to_digits(gf4.from_planes(*planes))


def show_tables():
    print("multiplication over GF(4) = {0, 1, alpha, alpha+1}, alpha^2 = alpha+1")
    for a in range(4):
        row = [NAMES[int(gf4.MUL_TABLE[a, b])] for b in range(4)]
        print(f"  {NAMES[a]:>8} | " + "  ".join(f"{v:>8}" for v in row))
    print("inverses:",
          {NAMES[a]: NAMES[gf4.INV_TABLE[a]] for a in range(1, 4)})


def show_polys():
    # a polynomial is two ints, its (hi, lo) bit planes: bit i of hi and
    # of lo are the two bits of the coefficient of x^i
    f = gf4.to_planes([1, 2, 1])
    g = gf4.to_planes([1, 1])
    print("\nf =", digits(f), f" (hi {f[0]:#05b}, lo {f[1]:#05b})",
          " g =", digits(g))
    fg = gf4.mul_planes(*f, *g)
    print("f*g =", digits(fg))
    q1, q0, r1, r0 = gf4.divmod_planes(*fg, *f)
    print("(f*g)/f =", digits((q1, q0)), "remainder", digits((r1, r0)))
    print("alpha*f made monic =",
          digits(gf4.monic_planes(*gf4.planes_scale(*f, gf4.ALPHA))))


def show_xn_minus_1():
    # over a characteristic-2 field x^(2N) - 1 = (x^N - 1)^2; the repeated
    # roots are why the gcd complexity method evaluates S at beta^k twice
    def x_pow_minus_1(n):
        return 0, 1 << n | 1

    n15 = x_pow_minus_1(15)
    print("\nx^30 - 1 == (x^15 - 1)^2:",
          gf4.mul_planes(*n15, *n15) == x_pow_minus_1(30))
    print("gcd(x^15 - 1, x^21 - 1) = x^gcd(15,21) - 1:",
          gf4.gcd_planes(*n15, *x_pow_minus_1(21)) == x_pow_minus_1(3))


if __name__ == "__main__":
    show_tables()
    show_polys()
    show_xn_minus_1()
