"""Quaternary generalized cyclotomic sequences over GF(4).

Builds sequences of period 2 p^m q^n from generalized cyclotomic classes,
measures their linear complexity by Berlekamp-Massey and by the gcd
method, and verifies the supporting class structure and character-sum
identities numerically.
"""

__version__ = "0.1.0"
