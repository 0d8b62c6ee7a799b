"""Quaternary sequences over GF(4) built from the cyclotomic partition.

A mapping assigns one field element to each bucket of the partition:
a and b to the two cosets of the doubled-modulus H-sets, c and d to the
two cosets of the doubled copies of the odd-modulus H-sets, e to the
half-period position; position zero always carries 0. The defining
constraints are that a, b, c, d are pairwise distinct, e is nonzero, and
e avoids the combination the paper's mod-8 rule forbids (b+d when
p = +/-1, b or b+c when p = +/-3). That rule is the gate, but
spectrum_profile, from the side of 2 in the p, q and pq families, is what
predicts full complexity; the two disagree on some mappings. Mappings
violating only the mod-8 rule are constructible with allow_degenerate.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from . import gf4
from .cyclotomy import bucket_of_label, residue_side_of_2
from .errors import InvalidMapping, InvalidParams, MalformedSequenceFile
from .numtheory import SystemConstants, two_is_square_mod

MAPPING_FIELDS = ("a", "b", "c", "d", "e")


@dataclass(frozen=True)
class Mapping:
    """Bucket-to-symbol assignment (a, b, c, d, e), each a GF(4) element."""

    a: int
    b: int
    c: int
    d: int
    e: int

    def __post_init__(self):
        for name in MAPPING_FIELDS:
            v = getattr(self, name)
            if not isinstance(v, int) or not 0 <= v <= 3:
                raise InvalidParams(f"{name} must be a field element 0..3")

    def as_tuple(self):
        return (self.a, self.b, self.c, self.d, self.e)

    def to_json_dict(self):
        return {name: getattr(self, name) for name in MAPPING_FIELDS}

    @classmethod
    def from_text(cls, text):
        """Parse "2,3,1,0,1" (with or without spaces) into a Mapping."""
        values = [parse_ascii_int(s) for s in text.split(",")]
        if len(values) != 5 or None in values:
            raise InvalidParams(
                "mapping must be five comma-separated digits a,b,c,d,e")
        return cls(*values)


def parse_ascii_int(text):
    """int(text.strip()) for ASCII digits 0-9 only, else None; None also
    for a digit run beyond Python's limit on int string conversion."""
    text = text.strip()
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:
        return None


# alpha, alpha+1, 1, 0 on the H-set buckets and e = 1 at the half period
DEFAULT_MAPPING = Mapping(gf4.ALPHA, gf4.ALPHA1, gf4.ONE, gf4.ZERO, gf4.ONE)


def structural_violations(mapping):
    """Constraint failures independent of the primes; empty list when ok."""
    out = []
    if len(set((mapping.a, mapping.b, mapping.c, mapping.d))) != 4:
        out.append("a, b, c, d must be pairwise distinct")
    if mapping.e == 0:
        out.append("e must be a nonzero field element")
    return out


def _forbidden_e(p, mapping):
    # the mod-8 rule as (name, value) pairs of the e values it excludes
    if two_is_square_mod(p):
        return [("b + d", mapping.b ^ mapping.d)]
    return [("b", mapping.b), ("b + c", mapping.b ^ mapping.c)]


def e_constraint_violations(p, mapping):
    residues = "+/-1" if two_is_square_mod(p) else "+/-3"
    return [f"e = {name} is forbidden when p is {residues} mod 8"
            for name, value in _forbidden_e(p, mapping) if mapping.e == value]


def validate_mapping(p, mapping):
    """All constraint violations for this mapping at prime p.

    Returns a list of human-readable strings; an empty list means the
    mapping is valid. Never raises on a bad mapping.
    """
    return structural_violations(mapping) + e_constraint_violations(p, mapping)


@dataclass(frozen=True)
class QuaternarySequence:
    """One full period of the sequence plus the parameters that built it."""

    symbols: np.ndarray
    constants: SystemConstants
    mapping: Mapping

    @property
    def period(self):
        return len(self.symbols)


def build_sequence(system, mapping=DEFAULT_MAPPING, allow_degenerate=False):
    """Evaluate the mapping over the partition in one vectorized gather.

    Structural violations always raise InvalidMapping; mod-8 violations
    raise unless allow_degenerate is set.
    """
    bad = structural_violations(mapping)
    if bad:
        raise InvalidMapping(bad)
    soft = e_constraint_violations(system.constants.p, mapping)
    if soft and not allow_degenerate:
        raise InvalidMapping(soft)

    by_bucket = {"zero": 0, "half": mapping.e, "a": mapping.a,
                 "b": mapping.b, "c": mapping.c, "d": mapping.d}
    lut = np.array([by_bucket[bucket_of_label(lab)] for lab in system.labels],
                   dtype=np.uint8)
    symbols = lut[system.partition]
    symbols.flags.writeable = False
    return QuaternarySequence(symbols=symbols, constants=system.constants,
                              mapping=mapping)


@dataclass(frozen=True)
class BalanceProfile:
    """Occurrence counts per symbol and per bucket over one period."""

    symbol_counts: dict
    bucket_counts: dict
    expected_bucket_size: int


def balance_profile(system, seq):
    """Count symbols and bucket occupancies; buckets a..d must tie.

    Each of the four H-set buckets covers exactly (p^m q^n - 1)/2 indices,
    so any valid mapping hits each of a, b, c, d that often (plus the two
    special positions for 0 and e).
    """
    counts = np.bincount(seq.symbols, minlength=4)
    label_counts = np.bincount(system.partition, minlength=len(system.labels))
    buckets = {"zero": 0, "half": 0, "a": 0, "b": 0, "c": 0, "d": 0}
    for idx, lab in enumerate(system.labels):
        buckets[bucket_of_label(lab)] += int(label_counts[idx])
    return BalanceProfile(
        symbol_counts={v: int(counts[v]) for v in range(4)},
        bucket_counts=buckets,
        expected_bucket_size=(system.half_period - 1) // 2,
    )


@dataclass(frozen=True)
class SpectrumProfile:
    """Predicted values of S(beta^k) by saturation regime.

    value_generic applies when p^m and q^n both miss k, value_p_saturated
    when p^m | k, value_q_saturated when q^n | k; S(1) = e always. The
    prediction for the full period holds exactly when every regime value
    and e are nonzero.
    """

    e_value: int
    value_generic: int
    value_p_saturated: int
    value_q_saturated: int

    @property
    def attains_max(self):
        return all(v != 0 for v in (self.e_value, self.value_generic,
                                    self.value_p_saturated,
                                    self.value_q_saturated))


def _lambda(side, mapping):
    # contribution of one prime-power family: b+d when 2 lies in D_0 of
    # its odd modulus, b+c when it lies in D_1
    if side == 0:
        return mapping.b ^ mapping.d
    return mapping.b ^ mapping.c


def spectrum_profile(system, mapping):
    """Predict S(beta^k) in each saturation regime from the side of 2.

    S(beta^k) = e + [p unsaturated][q unsaturated] L_pq
                  + [p unsaturated] L_p + [q unsaturated] L_q
    where each L is b+d or b+c according to the coset of 2 modulo the
    family's odd modulus.
    """
    lam_p, lam_q, lam_pq = (_lambda(residue_side_of_2(system, family), mapping)
                            for family in ("p", "q", "pq"))
    e = mapping.e
    return SpectrumProfile(
        e_value=e,
        value_generic=e ^ lam_pq ^ lam_p ^ lam_q,
        value_p_saturated=e ^ lam_q,
        value_q_saturated=e ^ lam_p,
    )


def degenerate_e_values(p, mapping):
    """The forbidden e values for this (p, b, c, d), for sweep reporting."""
    return sorted({value for _, value in _forbidden_e(p, mapping)})


def max_complexity_mappings(system, count=3):
    """First `count` valid mappings whose spectrum avoids zero everywhere.

    Deterministic enumeration: e ascending, then the lexicographic
    permutations of (0, 1, 2, 3) over (a, b, c, d).
    """
    import itertools

    found = []
    for e in range(1, 4):
        for perm in itertools.permutations(range(4)):
            mapping = Mapping(*perm, e)
            if validate_mapping(system.constants.p, mapping):
                continue
            if not spectrum_profile(system, mapping).attains_max:
                continue
            found.append(mapping)
            if len(found) == count:
                return found
    return found


def write_sequence_file(seq, path):
    """Write the symbol digits plus a JSON sidecar with the parameters."""
    digits = "".join("0123"[v] for v in seq.symbols)
    with open(path, "w") as fh:
        fh.write(digits + "\n")
    c = seq.constants
    meta = {"p": c.p, "q": c.q, "m": c.m, "n": c.n, "g": c.g, "y": c.y,
            "mapping": seq.mapping.to_json_dict()}
    with open(str(path) + ".json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def read_sequence_file(path):
    """Read a digit file back into a uint8 symbol array.

    Accepts exactly one line of ASCII digits 0-3 and an optional trailing
    LF; any other byte, CR included, raises MalformedSequenceFile.
    """
    if not os.path.exists(path):
        raise MalformedSequenceFile(f"no such file: {path}")
    with open(path, "rb") as fh:
        data = fh.read()
    data = data[:-1] if data.endswith(b"\n") else data
    if not data:
        raise MalformedSequenceFile("empty sequence file")
    symbols = np.frombuffer(data, dtype=np.uint8) - np.uint8(ord("0"))
    bad = np.flatnonzero(symbols > 3)
    if bad.size:
        raise MalformedSequenceFile(
            f"invalid symbol {ascii(chr(data[bad[0]]))}")
    return symbols

