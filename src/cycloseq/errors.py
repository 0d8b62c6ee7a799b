"""Exception types shared across the package.

Verification routines use the *Violation types in two modes: raised on the
first failing witness, or collected unraised into a list when the caller
wants the full picture (check_structural_lemmas does the latter). Every
instance carries enough of the witness to reproduce the failure by hand.
"""


class CycloseqError(Exception):
    """Base class for all package-specific errors."""


class InvalidParams(CycloseqError):
    """Parameters outside the supported domain (p = q, composite p, m < 1, ...)."""


class CapExceeded(CycloseqError):
    """A configured size cap would be exceeded (period, extension degree)."""


class NotCoprime(CycloseqError):
    """Operand shares a factor with the modulus where a unit is required."""


class DivisionByZeroPolynomial(CycloseqError):
    """Polynomial division or inversion by the zero polynomial."""


class InvalidMapping(CycloseqError):
    """Symbol mapping failed validation; .violations lists the reasons."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class MalformedSequenceFile(CycloseqError):
    """Sequence file is not one line of digits 0-3 with analyzable length."""


class PartitionViolation(CycloseqError):
    """An index of Z_{2N} ended up unlabeled or doubly labeled."""

    def __init__(self, index, detail):
        self.index = index
        self.detail = detail
        super().__init__(f"index {index}: {detail}")


class LemmaViolation(CycloseqError):
    """A verified set identity or character-sum table cell failed."""

    def __init__(self, detail, **witness):
        self.witness = witness
        parts = ", ".join(f"{k}={v}" for k, v in witness.items())
        super().__init__(f"{detail} [{parts}]" if parts else detail)


class CaseViolation(CycloseqError):
    """A measured spectrum value disagrees with its predicted constant.

    expected and measured are F_{4^d} elements written as the digits of
    their remainder polynomials, constant term first (gf4.poly_to_digits).
    """

    def __init__(self, k, expected, measured):
        self.k = k
        self.expected = expected
        self.measured = measured
        super().__init__(f"S(beta^{k}) = {measured}, predicted {expected}")


class MethodDisagreement(CycloseqError):
    """The two linear-complexity methods returned different answers."""


class TheoremViolation(CycloseqError):
    """A computed linear complexity contradicts a guaranteed value or bound."""
