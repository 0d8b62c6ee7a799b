"""Quaternary sequences over GF(4) built from the cyclotomic partition.

A mapping assigns one field element to each bucket of the partition:
a and b to the two cosets of the doubled-modulus H-sets, c and d to the
two cosets of the doubled copies of the odd-modulus H-sets, e to the
half-period position; position zero always carries 0. The defining
constraints are that a, b, c, d are pairwise distinct, e is nonzero, and
e avoids the values that forbidden_e, the paper's mod-8 rule, names (b+d
when p = +/-1, b or b+c when p = +/-3). build_sequence is the one gate;
mappings violating only the mod-8 rule pass it with allow_degenerate.
cells.predict_lc, not the rule, decides full complexity, and the two
disagree on some mappings; spectrum_profile predicts S(beta^k) per regime.

As s = sum over buckets of v_b 1_b, a sequence is held as its system and
mapping. A sweep row reads only those two: its LC follows by linearity
from the system's bucket_cells (analysis.bucket_lc). Its uint8 digits,
one gather, are made on first read; generate, analyze and verify read
them. Digits are the I/O form: write_sequence_file writes them and their
sidecar all or nothing.
"""

import contextlib
import functools
import json
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from . import gf4
from .cells import _bucket_symbols
from .cyclotomy import CyclotomicSystem, bucket_codes
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


def forbidden_e(p, mapping):
    """The mod-8 rule: (value, reason) for each e value it forbids at p.

    e = b + d is out when p = +/-1 mod 8, e = b and e = b + c when
    p = +/-3 mod 8. Two reasons can name one value (c = 0), and a value
    can be 0 (b = 0 or b = d).
    """
    m = mapping
    if two_is_square_mod(p):
        residues, named = "+/-1", [("b + d", m.b ^ m.d)]
    else:
        residues, named = "+/-3", [("b", m.b), ("b + c", m.b ^ m.c)]
    return [(value, f"e = {name} is forbidden when p is {residues} mod 8")
            for name, value in named]


def validate_mapping(p, mapping):
    """All constraint violations for this mapping at prime p.

    Returns a list of human-readable strings; an empty list means the
    mapping is valid. Never raises on a bad mapping.
    """
    return structural_violations(mapping) + [
        reason for value, reason in forbidden_e(p, mapping)
        if mapping.e == value]


@dataclass(frozen=True)
class QuaternarySequence:
    """One period of the sequence as the system and mapping that build it.

    symbols, a read-only uint8 array, one digit per position, trailing
    zeros included, is made on first read and kept.
    """

    system: CyclotomicSystem = field(repr=False)
    mapping: Mapping

    @property
    def constants(self):
        return self.system.constants

    @property
    def period(self):
        return self.system.period

    @functools.cached_property
    def symbols(self):
        c = self.constants
        lut = np.array(_bucket_symbols(self.mapping),
                       dtype=np.uint8)[bucket_codes(c.m, c.n)]
        symbols = lut[self.system.partition]
        symbols.flags.writeable = False
        return symbols


def build_sequence(system, mapping=DEFAULT_MAPPING, allow_degenerate=False):
    """The sequence of a mapping over the partition, its views unmade.

    The one gate on mappings: InvalidMapping lists every violation
    validate_mapping finds, or with allow_degenerate only the structural
    ones.
    """
    bad = (structural_violations(mapping) if allow_degenerate
           else validate_mapping(system.constants.p, mapping))
    if bad:
        raise InvalidMapping(bad)
    return QuaternarySequence(system=system, mapping=mapping)


@dataclass(frozen=True)
class SpectrumProfile:
    """Predicted values of S(beta^k) by saturation regime.

    value_generic applies when p^m and q^n both miss k, value_p_saturated
    when p^m | k, value_q_saturated when q^n | k; S(1) = e always.
    """

    value_generic: int
    value_p_saturated: int
    value_q_saturated: int


def spectrum_profile(system, mapping):
    """Predict S(beta^k) in each saturation regime from p and q alone.

    S(beta^k) = e + [p unsaturated][q unsaturated] L_pq
                  + [p unsaturated] L_p + [q unsaturated] L_q
    where L_r = b + d when 2 is a square mod r and b + c when it is not,
    2 then lying in D_0 or D_1 of the r-power families; the pq family's
    coset of 2 is q's, so L_pq = L_q. The partition is not read.
    """
    c, m = system.constants, mapping
    lam_p, lam_q = (m.b ^ (m.d if two_is_square_mod(r) else m.c)
                    for r in (c.p, c.q))
    # the generic, p-saturated and q-saturated values
    return SpectrumProfile(m.e ^ lam_p, m.e ^ lam_q, m.e ^ lam_p)


def _write_together(files):
    """Write each (path, text) in full, or leave every path as it was.

    Each text goes first to a temporary file beside its path, made as
    open() makes any file, or with the mode of the file it replaces. The
    temporary files then take their paths in order; if one cannot, each
    path already taken gets its old file back from a second hard link kept
    meanwhile (or is removed if it was new). No temporary name stays,
    in the files or in an OSError raised, which names the path it was for.
    """
    tag = f".{os.getpid()}"
    made, moved = [], []
    try:
        for path, text in files:
            with open(path + tag, "x") as fh:
                made.append(fh.name)
                fh.write(text)
            if os.path.isfile(path):
                shutil.copymode(path, fh.name)
        for path, _ in files:
            old = path + tag + ".old" if os.path.isfile(path) else None
            if old:
                os.link(path, old)
                made.append(old)
            os.replace(path + tag, path)
            moved.append((path, old))
    except BaseException as exc:
        for done, old in reversed(moved):
            if old:
                os.replace(old, done)
            else:
                os.remove(done)
        if isinstance(exc, OSError) and exc.filename is not None:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise
    finally:
        for name in made:
            with contextlib.suppress(FileNotFoundError):
                os.remove(name)


def write_sequence_file(seq, path):
    """Write the symbol digits plus a JSON sidecar with the parameters.

    Neither file changes unless both are written in full.
    """
    digits = gf4.poly_to_digits(seq.symbols)
    c = seq.constants
    meta = {"p": c.p, "q": c.q, "m": c.m, "n": c.n, "g": c.g, "y": c.y,
            "mapping": seq.mapping.to_json_dict()}
    path = os.fspath(path)
    _write_together([(path, digits + "\n"),
                     (path + ".json", json.dumps(meta, indent=2) + "\n")])


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

