"""Mapping validation, sequence assembly, balance, and file round trips."""

import json

import numpy as np
import pytest

from cycloseq import gf4
from cycloseq.cyclotomy import build_system
from cycloseq.errors import (InvalidMapping, InvalidParams,
                             MalformedSequenceFile)
from cycloseq.sequence import (DEFAULT_MAPPING, Mapping, balance_profile,
                               build_sequence, degenerate_e_values,
                               e_constraint_violations,
                               max_complexity_mappings,
                               read_sequence_file, read_sidecar,
                               spectrum_profile, structural_violations,
                               validate_mapping, write_sequence_file)


@pytest.fixture(scope="module")
def sys15():
    return build_system(3, 5, 1, 1)


@pytest.fixture(scope="module")
def sys21():
    return build_system(3, 7, 1, 1)


def test_default_mapping():
    assert DEFAULT_MAPPING.as_tuple() == (2, 3, 1, 0, 1)
    assert Mapping.from_text("2,3,1,0,1") == DEFAULT_MAPPING
    assert Mapping.from_text(" 2, 3, 1, 0, 1 ") == DEFAULT_MAPPING
    with pytest.raises(InvalidParams):
        Mapping.from_text("2,3,1,0")
    with pytest.raises(InvalidParams):
        Mapping.from_text("2,3,1,0,x")
    with pytest.raises(InvalidParams):
        Mapping(2, 3, 1, 0, 4)


def test_validate_mapping_reports_never_raises():
    # repeated letters and zero e are structural problems
    v = validate_mapping(3, Mapping(2, 2, 1, 0, 1))
    assert any("distinct" in s for s in v)
    v = validate_mapping(3, Mapping(2, 3, 1, 0, 0))
    assert any("nonzero" in s for s in v)
    # p = 3 is +/-3 mod 8: e = b and e = b+c are both out
    assert validate_mapping(3, Mapping(2, 3, 1, 0, 3)) != []
    assert validate_mapping(3, Mapping(2, 3, 1, 0, 2)) != []
    assert validate_mapping(3, DEFAULT_MAPPING) == []
    # p = 7 is -1 mod 8: only e = b+d is out, and b+d = 3 here
    assert validate_mapping(7, Mapping(2, 3, 1, 0, 2)) == []
    assert validate_mapping(7, Mapping(2, 3, 1, 0, 1)) == []
    assert e_constraint_violations(7, Mapping(2, 3, 1, 0, 3)) != []


def test_forbidden_e_values():
    m = DEFAULT_MAPPING
    assert degenerate_e_values(3, m) == [2, 3]
    assert degenerate_e_values(7, m) == [3]
    # b = 0 makes 0 a forbidden value; c = 0 makes e = b and e = b + c one
    assert degenerate_e_values(3, Mapping(1, 0, 2, 3, 1)) == [0, 2]
    assert e_constraint_violations(3, Mapping(1, 2, 0, 3, 2)) == [
        "e = b is forbidden when p is +/-3 mod 8",
        "e = b + c is forbidden when p is +/-3 mod 8"]


def test_build_sequence_example_1(sys15):
    seq = build_sequence(sys15)
    s = seq.symbols
    assert seq.period == 30
    assert s[0] == 0
    assert s[1] == 2      # alpha: 1 lies in the h=0 doubled-modulus union
    assert s[2] == 1      # c: 2 = 2*1 with 1 in an h=0 odd-modulus H-set
    assert s[4] == 0      # d
    assert s[7] == 3      # 1+alpha: 7 lies in the h=1 union
    assert s[15] == 1     # e at the half period
    assert not s.flags.writeable


def test_build_sequence_example_2(sys21):
    seq = build_sequence(sys21)
    assert seq.period == 42
    assert seq.symbols[5] == 3  # 5 sits in the h=1 doubled-modulus union


def test_build_sequence_rejections(sys15):
    with pytest.raises(InvalidMapping):
        build_sequence(sys15, Mapping(2, 2, 1, 0, 1))
    with pytest.raises(InvalidMapping):
        build_sequence(sys15, Mapping(2, 3, 1, 0, 3))
    # structural failures stay fatal even with allow_degenerate
    with pytest.raises(InvalidMapping):
        build_sequence(sys15, Mapping(2, 2, 1, 0, 1), allow_degenerate=True)
    seq = build_sequence(sys15, Mapping(2, 3, 1, 0, 3), allow_degenerate=True)
    assert seq.symbols[15] == 3


def test_balance(sys15, sys21):
    for system, half in ((sys15, 7), (sys21, 10)):
        seq = build_sequence(system)
        prof = balance_profile(system, seq)
        assert prof.expected_bucket_size == half
        for bucket in "abcd":
            assert prof.bucket_counts[bucket] == half
        assert sum(prof.symbol_counts.values()) == seq.period
        # default mapping: symbol e=1 rides on bucket c, a on alpha, etc.
        assert prof.symbol_counts[2] == half          # a = alpha
        assert prof.symbol_counts[3] == half          # b = alpha+1
        assert prof.symbol_counts[1] == half + 1      # c plus the half term
        assert prof.symbol_counts[0] == half + 1      # d plus position zero


def generating_polynomial(seq):
    """S(x) = sum s_t x^t as a gf4 polynomial (trimmed coefficient array)."""
    return gf4.poly_trim(np.array(seq.symbols, dtype=np.uint8))


def test_generating_polynomial(sys15):
    seq = build_sequence(sys15)
    poly = generating_polynomial(seq)
    assert len(poly) == 30  # s_29 is nonzero for the default mapping
    assert int(poly[0]) == 0 and int(poly[1]) == 2


def test_spectrum_profile_case4(sys15):
    # p = 3, q = 5: both +/-3 mod 8, all three regimes collapse to e+b+c
    prof = spectrum_profile(sys15, DEFAULT_MAPPING)
    assert prof.e_value == 1
    assert prof.value_generic == prof.value_p_saturated == \
        prof.value_q_saturated == 3
    assert prof.attains_max


def test_spectrum_profile_case2(sys21):
    # p = 3 (+/-3), q = 7 (-1): p-saturated regime differs from the rest
    prof = spectrum_profile(sys21, DEFAULT_MAPPING)
    assert prof.value_generic == 3
    assert prof.value_p_saturated == 2
    assert prof.value_q_saturated == 3
    assert prof.attains_max
    # e = b+d zeroes the p-saturated regime yet passes validation
    witness = Mapping(0, 3, 1, 2, 1)
    assert validate_mapping(3, witness) == []
    wprof = spectrum_profile(sys21, witness)
    assert wprof.value_p_saturated == 0
    assert not wprof.attains_max


def test_max_complexity_mappings(sys15, sys21):
    for system in (sys15, sys21):
        found = max_complexity_mappings(system, count=3)
        assert len(found) == 3
        assert len(set(m.as_tuple() for m in found)) == 3
        for m in found:
            assert validate_mapping(system.constants.p, m) == []
            assert spectrum_profile(system, m).attains_max


def test_file_roundtrip(tmp_path, sys15):
    seq = build_sequence(sys15)
    path = tmp_path / "seq.txt"
    write_sequence_file(seq, path)
    text = path.read_text()
    assert text.endswith("\n") and len(text) == 31
    assert set(text.strip()) <= set("0123")
    back = read_sequence_file(path)
    assert np.array_equal(back, seq.symbols)
    meta = read_sidecar(path)
    assert meta["p"] == 3 and meta["q"] == 5
    assert meta["g"] == 23 and meta["y"] == 11
    assert meta["mapping"] == {"a": 2, "b": 3, "c": 1, "d": 0, "e": 1}


def test_read_rejections(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("01x0\n")
    with pytest.raises(MalformedSequenceFile):
        read_sequence_file(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(MalformedSequenceFile):
        read_sequence_file(empty)
    with pytest.raises(MalformedSequenceFile):
        read_sequence_file(tmp_path / "missing.txt")
    two_lines = tmp_path / "two.txt"
    two_lines.write_text("0123\n0123\n")
    with pytest.raises(MalformedSequenceFile):
        read_sequence_file(two_lines)
    seq_file = tmp_path / "nosidecar.txt"
    seq_file.write_text("012\n")
    with pytest.raises(MalformedSequenceFile):
        read_sidecar(seq_file)


def test_sidecar_schema(tmp_path, sys15):
    seq = build_sequence(sys15)
    path = tmp_path / "s.txt"
    write_sequence_file(seq, path)
    with open(str(path) + ".json") as fh:
        meta = json.load(fh)
    assert set(meta) == {"p", "q", "m", "n", "g", "y", "mapping"}
