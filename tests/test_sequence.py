"""Mapping validation, sequence assembly, balance, and file round trips."""

import itertools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloseq import gf4
from cycloseq.analysis import max_complexity_mappings, predict_lc
from cycloseq.cyclotomy import build_system, residue_side_of_2
from cycloseq.errors import (InvalidMapping, InvalidParams,
                             MalformedSequenceFile)
from cycloseq.sequence import (DEFAULT_MAPPING, Mapping, SpectrumProfile,
                               balance_profile, build_sequence, forbidden_e,
                               read_sequence_file,
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
    # str.isdigit accepts these, int() rejects the first and reads the
    # second as 1: only ASCII digits are mapping digits
    for text in ("2,3,1,0,\u00b2", "2,3,\u0661,0,1"):
        with pytest.raises(InvalidParams):
            Mapping.from_text(text)
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
    assert validate_mapping(7, Mapping(2, 3, 1, 0, 3)) == [
        "e = b + d is forbidden when p is +/-1 mod 8"]
    assert forbidden_e(7, Mapping(2, 3, 1, 0, 3)) == [
        (3, "e = b + d is forbidden when p is +/-1 mod 8")]


def _forbidden_values(p, mapping):
    return sorted({value for value, _ in forbidden_e(p, mapping)})


def test_forbidden_e_values():
    m = DEFAULT_MAPPING
    assert _forbidden_values(3, m) == [2, 3]
    assert _forbidden_values(7, m) == [3]
    # b = 0 makes 0 a forbidden value; c = 0 makes e = b and e = b + c one
    assert _forbidden_values(3, Mapping(1, 0, 2, 3, 1)) == [0, 2]
    both = ["e = b is forbidden when p is +/-3 mod 8",
            "e = b + c is forbidden when p is +/-3 mod 8"]
    assert forbidden_e(3, Mapping(1, 2, 0, 3, 2)) == [(2, why) for why in both]
    assert validate_mapping(3, Mapping(1, 2, 0, 3, 2)) == both


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


def _nonzero(prof):
    # e and the three regime values all nonzero: no S(beta^k) vanishes
    return all(v != 0 for v in (prof.e_value, prof.value_generic,
                                prof.value_p_saturated,
                                prof.value_q_saturated))


def _full_lc(system, mapping):
    return predict_lc(system.constants, mapping) == system.period


def test_spectrum_profile_case4(sys15):
    # p = 3, q = 5: both +/-3 mod 8, all three regimes collapse to e+b+c
    prof = spectrum_profile(sys15, DEFAULT_MAPPING)
    assert prof.e_value == 1
    assert prof.value_generic == prof.value_p_saturated == \
        prof.value_q_saturated == 3
    assert _nonzero(prof) and _full_lc(sys15, DEFAULT_MAPPING)


def test_spectrum_profile_case2(sys21):
    # p = 3 (+/-3), q = 7 (-1): p-saturated regime differs from the rest
    prof = spectrum_profile(sys21, DEFAULT_MAPPING)
    assert prof.value_generic == 3
    assert prof.value_p_saturated == 2
    assert prof.value_q_saturated == 3
    assert _nonzero(prof) and _full_lc(sys21, DEFAULT_MAPPING)
    # e = b+d zeroes the p-saturated regime yet passes validation
    witness = Mapping(0, 3, 1, 2, 1)
    assert validate_mapping(3, witness) == []
    wprof = spectrum_profile(sys21, witness)
    assert wprof.value_p_saturated == 0
    assert not _nonzero(wprof) and not _full_lc(sys21, witness)


def _profile_from_class_tables(system, mapping):
    # the rule spectrum_profile followed before it read p and q alone: each
    # L from the coset of 2 in its family's class tables
    b, c, d, e = mapping.b, mapping.c, mapping.d, mapping.e
    lam_p, lam_q, lam_pq = (
        b ^ (c if residue_side_of_2(system, family) else d)
        for family in ("p", "q", "pq"))
    return SpectrumProfile(
        e_value=e,
        value_generic=e ^ lam_pq ^ lam_p ^ lam_q,
        value_p_saturated=e ^ lam_q,
        value_q_saturated=e ^ lam_p,
    )


# one pair per (p mod 8, q mod 8) class, as in the sweep benchmark
CLASS_PAIRS = ((17, 41), (17, 3), (17, 5), (17, 7), (7, 17), (7, 3), (7, 5),
               (7, 23), (3, 17), (3, 11), (3, 5), (3, 7), (5, 17), (5, 3),
               (5, 13), (5, 7))
ALL_MAPPINGS = tuple(Mapping(*perm, e)
                     for perm in itertools.permutations(range(4))
                     for e in (1, 2, 3))


@pytest.mark.parametrize("p, q", CLASS_PAIRS, ids=str)
def test_spectrum_profile_reads_p_and_q_alone(cold_builds, p, q):
    assert len({(p % 8, q % 8) for p, q in CLASS_PAIRS}) == 16
    for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
        system = build_system(p, q, m, n)
        profiles = [spectrum_profile(system, mapping)
                    for mapping in ALL_MAPPINGS]
        assert "classes" not in vars(system)
        for mapping, prof in zip(ALL_MAPPINGS, profiles):
            assert prof == _profile_from_class_tables(system, mapping)
            assert _nonzero(prof) == _full_lc(system, mapping)


def test_max_complexity_mappings(sys15, sys21):
    for system in (sys15, sys21):
        found = max_complexity_mappings(system, count=3)
        assert len(found) == 3
        assert len(set(m.as_tuple() for m in found)) == 3
        for m in found:
            assert validate_mapping(system.constants.p, m) == []
            assert _nonzero(spectrum_profile(system, m))
            assert _full_lc(system, m)
    # the list the spectrum profile's nonzero values pick, in the same
    # order: e ascending, then the permutations of (a, b, c, d)
    by_e = sorted(ALL_MAPPINGS, key=lambda m: m.e)
    for p, q in CLASS_PAIRS:
        for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
            system = build_system(p, q, m, n)
            want = [mp for mp in by_e if not validate_mapping(p, mp)
                    and _nonzero(spectrum_profile(system, mp))]
            assert max_complexity_mappings(system, count=72) == want
            assert max_complexity_mappings(system) == want[:3]


def test_file_roundtrip(tmp_path, sys15):
    seq = build_sequence(sys15)
    path = tmp_path / "seq.txt"
    write_sequence_file(seq, path)
    text = path.read_text()
    assert text.endswith("\n") and len(text) == 31
    assert set(text.strip()) <= set("0123")
    back = read_sequence_file(path)
    assert np.array_equal(back, seq.symbols)
    with open(str(path) + ".json") as fh:
        meta = json.load(fh)
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
    # the file is bytes: none outside ASCII 0-3 and the one trailing LF
    for data, shown in ((b"01x0\n", "'x'"), (b"\xff\xfe0123\n", "'\\xff'"),
                        (b"0123\r\n", "'\\r'"), (b"01\xc2\xb2\n", "'\\xc2'")):
        raw = tmp_path / "raw.txt"
        raw.write_bytes(data)
        with pytest.raises(MalformedSequenceFile) as info:
            read_sequence_file(raw)
        assert str(info.value) == f"invalid symbol {shown}"


def test_sidecar_schema(tmp_path, sys15):
    seq = build_sequence(sys15)
    path = tmp_path / "s.txt"
    write_sequence_file(seq, path)
    with open(str(path) + ".json") as fh:
        meta = json.load(fh)
    assert set(meta) == {"p", "q", "m", "n", "g", "y", "mapping"}


@settings(deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=200))
def test_file_roundtrip_any_symbols(tmp_path_factory, sys15, digits):
    seq = replace(build_sequence(sys15), symbols=np.array(digits, np.uint8))
    path = tmp_path_factory.mktemp("roundtrip") / "seq.txt"
    write_sequence_file(seq, path)
    back = read_sequence_file(path)
    assert back.dtype == np.uint8 and np.array_equal(back, seq.symbols)
