"""Quaternary sequences over GF(4) built from the cyclotomic partition.

A mapping assigns one field element to each bucket of the partition:
a and b to the two cosets of the doubled-modulus H-sets, c and d to the
two cosets of the doubled copies of the odd-modulus H-sets, e to the
half-period position; position zero always carries 0. The defining
constraints are that a, b, c, d are pairwise distinct, e is nonzero, and
e avoids the forbidden combination determined by p mod 8 (b+d when
p = +/-1, b or b+c when p = +/-3). Mappings violating only the mod-8
constraint are still constructible with allow_degenerate for analysis.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from . import gf4
from .cyclotomy import (CyclotomicSystem, bucket_of_label, build_system,
                        residue_side_of_2)
from .errors import InvalidMapping, InvalidParams, MalformedSequenceFile
from .numtheory import two_is_square_mod

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
        parts = [s.strip() for s in text.split(",")]
        if len(parts) != 5 or not all(s.isdigit() for s in parts):
            raise InvalidParams(
                "mapping must be five comma-separated digits a,b,c,d,e")
        return cls(*(int(s) for s in parts))


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
    p: int
    q: int
    m: int
    n: int
    g: int
    y: int
    mapping: Mapping

    @property
    def period(self):
        return len(self.symbols)

    @property
    def half_period(self):
        return len(self.symbols) // 2


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
    c = system.constants
    return QuaternarySequence(symbols=symbols, p=c.p, q=c.q, m=c.m, n=c.n,
                              g=c.g, y=c.y, mapping=mapping)


@dataclass(frozen=True)
class BalanceProfile:
    """Occurrence counts per symbol and per bucket over one period."""

    symbol_counts: dict
    bucket_counts: dict
    expected_bucket_size: int

    def to_json_dict(self):
        return {
            "symbol_counts": {str(k): v for k, v in self.symbol_counts.items()},
            "bucket_counts": dict(self.bucket_counts),
            "expected_bucket_size": self.expected_bucket_size,
        }


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

    def to_json_dict(self):
        return {
            "e_value": self.e_value,
            "value_generic": self.value_generic,
            "value_p_saturated": self.value_p_saturated,
            "value_q_saturated": self.value_q_saturated,
            "attains_max": self.attains_max,
        }


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
    side_p = residue_side_of_2(system, "p")
    side_q = residue_side_of_2(system, "q")
    side_pq = residue_side_of_2(system, "pq")
    lam_p = _lambda(side_p, mapping)
    lam_q = _lambda(side_q, mapping)
    lam_pq = _lambda(side_pq, mapping)
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


def sidecar_path(path):
    return str(path) + ".json"


def write_sequence_file(seq, path):
    """Write the symbol digits plus a JSON sidecar with the parameters."""
    digits = "".join("0123"[v] for v in seq.symbols)
    with open(path, "w") as fh:
        fh.write(digits + "\n")
    meta = {"p": seq.p, "q": seq.q, "m": seq.m, "n": seq.n,
            "g": seq.g, "y": seq.y, "mapping": seq.mapping.to_json_dict()}
    with open(sidecar_path(path), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def read_sequence_file(path):
    """Read a digit file back into a uint8 symbol array.

    Accepts exactly one line of 0-3 digits with an optional trailing
    newline; anything else raises MalformedSequenceFile.
    """
    if not os.path.exists(path):
        raise MalformedSequenceFile(f"no such file: {path}")
    with open(path, "r") as fh:
        text = fh.read()
    text = text[:-1] if text.endswith("\n") else text
    if not text:
        raise MalformedSequenceFile("empty sequence file")
    if any(ch not in "0123" for ch in text):
        bad = next(ch for ch in text if ch not in "0123")
        raise MalformedSequenceFile(f"invalid symbol {bad!r}")
    return (np.frombuffer(text.encode("ascii"), dtype=np.uint8)
            - ord("0")).astype(np.uint8)


def read_sidecar(path):
    """Parse the JSON sidecar written next to a sequence file."""
    sp = sidecar_path(path)
    if not os.path.exists(sp):
        raise MalformedSequenceFile(f"missing sidecar: {sp}")
    with open(sp, "r") as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedSequenceFile(f"bad sidecar JSON: {exc}") from exc
    for key in ("p", "q", "m", "n", "g", "y", "mapping"):
        if key not in meta:
            raise MalformedSequenceFile(f"sidecar missing {key!r}")
    return meta
