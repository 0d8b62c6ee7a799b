"""End-to-end runs of the command line through main(argv)."""

import contextlib
import csv
import dataclasses
import functools
import io
import json
import os
import pathlib
import stat
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DOUBLED_SHAPES, clear_held, fresh_held
from cycloseq import (analysis, cells, cli, cyclotomy, errors, extfield,
                      gf4, limits, numtheory, sequence)
from cycloseq.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_roundtrip(tmp_path, capsys):
    out = tmp_path / "ex1.txt"
    code, stdout, _ = run(capsys, "generate", "--p", "3", "--q", "5",
                          "--out", str(out))
    assert code == 0
    assert "wrote 30 symbols" in stdout
    assert out.read_text().strip() == "021202131312030103020313130212"
    assert (tmp_path / "ex1.txt.json").exists()


def test_generate_default_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = run(capsys, "generate", "--p", "3", "--q", "7")
    assert code == 0
    assert (tmp_path / "seq_p3q7m1n1.txt").exists()


def test_generate_degenerate_gate(tmp_path, capsys):
    out = tmp_path / "d.txt"
    code, _, err = run(capsys, "generate", "--p", "3", "--q", "5",
                       "--map", "2,3,1,0,3", "--out", str(out))
    assert code == 2 and "error:" in err
    code, _, _ = run(capsys, "generate", "--p", "3", "--q", "5",
                     "--map", "2,3,1,0,3", "--degenerate", "--out", str(out))
    assert code == 0


def test_analyze_file(tmp_path, capsys):
    out = tmp_path / "s.txt"
    assert run(capsys, "generate", "--p", "3", "--q", "5",
               "--out", str(out))[0] == 0
    code, stdout, _ = run(capsys, "analyze", "--file", str(out))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["lc_bm"] == 30 and payload["lc_gcd"] == 30
    assert payload["theorem_holds"] is True
    assert payload["period"] == 30


def test_analyze_file_length_is_bounded_by_the_cap(tmp_path, capsys,
                                                   monkeypatch):
    # --cap bounds a file's length as it bounds 2 p^m q^n, with the same
    # words, before either LC route runs
    out = tmp_path / "s.txt"
    assert run(capsys, "generate", "--p", "3", "--q", "5",
               "--out", str(out))[0] == 0
    assert run(capsys, "analyze", "--file", str(out), "--cap", "30")[0] == 0
    assert run(capsys, "analyze", "--p", "3", "--q", "5", "--cap", "10") \
        == run(capsys, "analyze", "--file", str(out), "--cap", "10") \
        == (3, "", "error: period 30 exceeds cap 10\n")

    def refuse(symbols):
        raise AssertionError("an LC route ran past the cap")

    # both paths read the ceiling from limits; a held (3, 5) would
    # skip the constants, which check the period only when built
    monkeypatch.setattr(cli, "analyze_symbols", refuse)
    monkeypatch.setattr(limits, "PERIOD_CEILING", 29)
    fresh_held()
    assert run(capsys, "analyze", "--p", "3", "--q", "5") \
        == run(capsys, "analyze", "--file", str(out)) \
        == (3, "", "error: period 30 exceeds the period ceiling 29\n")


def test_analyze_params_formats(tmp_path, capsys):
    code, stdout, _ = run(capsys, "analyze", "--p", "3", "--q", "7")
    assert code == 0
    assert json.loads(stdout)["lc_gcd"] == 42
    code, stdout, _ = run(capsys, "analyze", "--p", "3", "--q", "7",
                          "--format", "csv")
    assert code == 0
    header, row = stdout.strip().splitlines()
    assert "lc_gcd" in header.split(",")
    code, stdout, _ = run(capsys, "analyze", "--p", "3", "--q", "7",
                          "--format", "text")
    assert code == 0 and "lc_gcd=42" in stdout
    out = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "analyze", "--p", "3", "--q", "7",
                          "--out", str(out))
    assert code == 0 and stdout == ""
    assert json.loads(out.read_text())["lc_gcd"] == 42


def test_analyze_needs_input(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == 2 and "error:" in err


def test_analyze_malformed_files(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("01x2\n")
    assert run(capsys, "analyze", "--file", str(bad))[0] == 4
    # length 8 is twice an even number: not a legal period shape
    shape = tmp_path / "shape.txt"
    shape.write_text("01230123\n")
    assert run(capsys, "analyze", "--file", str(shape))[0] == 4
    odd = tmp_path / "odd.txt"
    odd.write_text("0123012\n")
    assert run(capsys, "analyze", "--file", str(odd))[0] == 4
    assert run(capsys, "analyze", "--file", str(tmp_path / "nope.txt"))[0] == 4
    # not UTF-8: still a malformed file, not a decoding traceback
    raw = tmp_path / "raw.txt"
    raw.write_bytes(b"\xff\xfe0123\n")
    assert run(capsys, "analyze", "--file", str(raw))[::2] == (
        4, "error: invalid symbol '\\xff'\n")


def test_verify_clean(capsys):
    code, stdout, _ = run(capsys, "verify", "--p", "3", "--q", "5")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["partition_ok"] is True
    assert payload["char_sums"]["cells_checked"] == 84
    assert payload["case_table"]["max_complexity_predicted"] is True
    assert payload["linear_complexity"]["lc_gcd"] == 30
    assert payload["linear_complexity"]["theorem_holds"] is True


def test_verify_rejects_degenerate_map(capsys):
    code, _, err = run(capsys, "verify", "--p", "3", "--q", "5",
                       "--map", "2,3,1,0,3")
    assert code == 2 and "error:" in err


def test_verify_builds_the_sequence_once(capsys, monkeypatch):
    # the spectrum check and the LC check read one sequence; a mapping
    # they would refuse is never built, and fails with every reason
    calls, real = [], sequence.build_sequence

    def counted(*args, **kwargs):
        seq = real(*args, **kwargs)
        calls.append(args)
        return seq

    for module in (cli, analysis, extfield):
        monkeypatch.setattr(module, "build_sequence", counted)
    assert run(capsys, "verify", "--p", "17", "--q", "3")[0] == 0
    assert len(calls) == 1
    calls.clear()
    code, _, err = run(capsys, "verify", "--p", "3", "--q", "5",
                       "--map", "1,1,1,1,1")
    assert (code, err) == (2, "error: a, b, c, d must be pairwise distinct; "
                              "e = b is forbidden when p is +/-3 mod 8\n")
    assert calls == []


def test_every_command_names_every_reason(tmp_path, capsys):
    # build_sequence is the one gate: generate, analyze and verify refuse
    # a mapping that breaks both the structure and the mod-8 rule with
    # the same two reasons; --degenerate lifts the rule, not the structure
    both = ("error: a, b, c, d must be pairwise distinct; "
            "e = b is forbidden when p is +/-3 mod 8\n")
    out = str(tmp_path / "s.txt")
    params = ("--p", "3", "--q", "5", "--map", "1,1,1,1,1")
    for argv in (("generate", *params, "--out", out), ("analyze", *params),
                 ("verify", *params)):
        assert run(capsys, *argv) == (2, "", both), argv
    for command in ("generate", "analyze"):
        assert run(capsys, command, *params, "--out", out, "--degenerate") \
            == (2, "", "error: a, b, c, d must be pairwise distinct\n")
    assert not os.path.exists(out)


def test_berlekamp_massey_runs_once_on_two_periods(tmp_path, capsys,
                                                   monkeypatch):
    # analyze and verify run BM first on two periods of the fold, P
    # symbols at P = 2N; at full LC that is the one call, and below it
    # BM runs once more, on 2P symbols. sweep runs no BM
    calls, real = [], analysis.berlekamp_massey

    def spy(*args, **kwargs):
        calls.append((len(args), kwargs, len(args[0])))
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "berlekamp_massey", spy)
    out = str(tmp_path / "s.txt")
    assert run(capsys, "generate", "--p", "3", "--q", "7",
               "--out", out)[0] == 0
    assert run(capsys, "sweep", "--pairs", "3:7", "--exponents", "1:1",
               "--degenerate")[0] == 0
    assert calls == []
    for argv, period, lc in [
            (("analyze", "--p", "3", "--q", "5", "--m", "4", "--n", "3"),
             20250, 20250),
            (("analyze", "--file", out), 42, 42),
            (("verify", "--p", "3", "--q", "5"), 30, 30),
            (("analyze", "--p", "3", "--q", "7", "--map", "0,1,2,3,2"),
             42, 36)]:
        calls.clear()
        code, stdout, _ = run(capsys, *argv)
        report = json.loads(stdout)
        report = report.get("linear_complexity", report)
        assert (code, report["lc_bm"], report["lc_gcd"]) == (0, lc, lc)
        expected = [(1, {}, period)]
        if lc < period:
            expected.append((1, {}, 2 * period))
        assert calls == expected, argv


def test_sweep_forms_no_minimal_polynomial(capsys, monkeypatch):
    # sweep reads LC alone, from the degrees of the gcd route's factors:
    # no product and no division outside the gcds, also on reduced rows;
    # analyze forms the minimal polynomial once, for its report
    calls = Counter()

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    spy(gf4, "divmod_planes")
    spy(gf4, "mul_planes")
    spy(analysis, "minimal_planes")
    for argv in (("sweep", "--pairs", "3:7,7:17", "--exponents", "1:1",
                  "--map", "0,1,2,3,2"),
                 ("sweep", "--pairs", "3:5,3:7", "--exponents", "1:1,2:1",
                  "--degenerate")):
        _, stdout, _ = run(capsys, *argv)
        rows = json.loads(stdout)
        assert any(row["lc"] < row["period"] for row in rows), argv
    assert calls == Counter()
    code, stdout, _ = run(capsys, "analyze", "--p", "3", "--q", "7",
                          "--map", "0,1,2,3,2")
    assert (code, json.loads(stdout)["lc_gcd"]) == (0, 36)
    assert calls["minimal_planes"] == 1


def test_verify_vanishing_regime_is_a_violation(capsys):
    # e = b + d at (3,7) passes the gate but cannot reach full complexity
    code, _, err = run(capsys, "verify", "--p", "3", "--q", "7",
                       "--map", "0,3,1,2,1")
    assert code == 1 and "violation:" in err


def test_verify_cross_checks_the_two_full_lc_verdicts(capsys, monkeypatch):
    # the measured spectrum and predict_lc must agree on full LC: a closed
    # form that disagrees either way is a violation naming both verdicts
    witness = ("--p", "3", "--q", "7", "--map", "0,3,1,2,1")
    real = cells.predict_lc
    monkeypatch.setattr(extfield, "predict_lc",
                        lambda c, mapping: real(c, mapping) - 1)
    assert run(capsys, "verify", "--p", "3", "--q", "5") == (
        1, "", "violation: all_values_nonzero = True, "
               "max_complexity_predicted = False: predict_lc gives 29 of "
               "period 30 for mapping (2, 3, 1, 0, 1)\n")
    monkeypatch.setattr(extfield, "predict_lc", lambda c, mapping: c.period)
    assert run(capsys, "verify", *witness) == (
        1, "", "violation: all_values_nonzero = False, "
               "max_complexity_predicted = True: predict_lc gives 42 of "
               "period 42 for mapping (0, 3, 1, 2, 1)\n")
    # unstubbed, both verdicts agree: full at (3, 5), short for the
    # witness, which fails on its LC instead
    monkeypatch.undo()
    code, stdout, _ = run(capsys, "verify", "--p", "3", "--q", "5")
    case = json.loads(stdout)["case_table"]
    assert code == 0
    assert case["all_values_nonzero"] is case["max_complexity_predicted"] \
        is True
    code, _, err = run(capsys, "verify", *witness)
    assert (code, err) == (1, "violation: complexity 36 < period 42 for "
                              "mapping (0, 3, 1, 2, 1)\n")


def test_verify_caps(capsys):
    code, _, err = run(capsys, "verify", "--p", "71", "--q", "73")
    assert code == 3 and "error:" in err
    # N = 143 is under the N cap, but ord_143(4) = 30 exceeds the degree cap
    code, _, err = run(capsys, "verify", "--p", "11", "--q", "13")
    assert code == 3 and "error:" in err
    code, _, err = run(capsys, "verify", "--p", "3", "--q", "5",
                       "--cap", "10")
    assert code == 3


def test_cap_comes_from_the_flag_alone(tmp_path, capsys, monkeypatch):
    # --cap is the one way to set the cap: a CYCLOSEQ_CAP environment
    # variable, once a second way, leaves the default in force
    monkeypatch.setenv("CYCLOSEQ_CAP", "10")
    code, _, _ = run(capsys, "generate", "--p", "3", "--q", "5",
                     "--out", str(tmp_path / "s.txt"))
    assert code == 0
    code, out, err = run(capsys, "generate", "--p", "3", "--q", "5",
                         "--cap", "10", "--out", str(tmp_path / "t.txt"))
    assert (code, out) == (3, "")
    assert err == "error: period 30 exceeds cap 10\n"
    assert not (tmp_path / "t.txt").exists()


def test_sweep_single_row(capsys):
    code, stdout, _ = run(capsys, "sweep", "--pairs", "3:5",
                          "--exponents", "1:1")
    assert code == 0
    rows = json.loads(stdout)
    assert len(rows) == 1
    assert rows[0]["lc"] == 30 and rows[0]["theorem_holds"] is True


def test_sweep_grid_rows(capsys):
    code, stdout, _ = run(capsys, "sweep", "--pairs", "3:5,3:7",
                          "--exponents", "1:1,2:1")
    assert code == 0
    rows = json.loads(stdout)
    assert [r["lc"] for r in rows] == [30, 90, 42, 126]


def test_sweep_degenerate(capsys):
    code, stdout, _ = run(capsys, "sweep", "--pairs", "3:5",
                          "--exponents", "1:1", "--degenerate")
    assert code == 0
    rows = json.loads(stdout)
    # p = 3: both forbidden e values get a row
    assert len(rows) == 2
    assert all(r["bound_ok"] for r in rows)
    assert {r["lc"] for r in rows} == {16, 30}
    # b = 0: the forbidden value e = b = 0 is not a mapping, so no row
    code, stdout, _ = run(capsys, "sweep", "--pairs", "3:5", "--exponents",
                          "1:1", "--degenerate", "--map", "1,0,2,3,1")
    assert [r["mapping"] for r in json.loads(stdout)] == ["1,0,2,3,2"]


def test_sweep_degenerate_base_with_repeated_digits_is_refused(capsys):
    # when a, b, c, d repeat the mod-8 rule may forbid no nonzero e (b = d
    # at p = +/-1 mod 8, b = c = 0 at +/-3); the base then gets one row,
    # which the gate refuses, so the sweep exits 2 and never prints []
    for pairs, mapping, rows in (
            ("7:3", "2,1,3,1,1", [("2,1,3,1,1", "")]),
            ("3:5", "2,1,3,1,1", [("2,1,3,1,1", ""), ("2,1,3,1,2", "")]),
            ("7:3,3:5", "0,0,0,0,0",
             [("0,0,0,0,0", "; e must be a nonzero field element")] * 2)):
        code, stdout, err = run(capsys, "sweep", "--degenerate", "--pairs",
                                pairs, "--exponents", "1:1", "--map", mapping)
        assert (code, err) == (2, ""), pairs
        assert [(r["mapping"], r["error"]) for r in json.loads(stdout)] == [
            (m, "InvalidMapping: a, b, c, d must be pairwise distinct" + tail)
            for m, tail in rows], pairs


def test_sweep_error_row_fails(capsys):
    # p = q is invalid input, so the row's failure exits 2, not 1
    code, stdout, _ = run(capsys, "sweep", "--pairs", "3:3",
                          "--exponents", "1:1")
    assert code == 2
    rows = json.loads(stdout)
    assert "error" in rows[0]


def test_sweep_exit_codes_by_row_failure(capsys):
    code, stdout, _ = run(capsys, "sweep", "--pairs", "3:5,3:3",
                          "--exponents", "1:1")
    assert code == 2
    assert [r["p"] for r in json.loads(stdout) if "error" in r] == [3]
    # a row that fails on its complexity bound still exits 1
    code, stdout, _ = run(capsys, "sweep", "--degenerate", "--pairs", "3:5",
                          "--exponents", "1:1", "--map", "0,2,3,1,1")
    assert code == 1
    assert json.loads(stdout)[0]["error"].startswith("TheoremViolation")


def test_sweep_empty_grid(capsys):
    code, stdout, _ = run(capsys, "sweep", "--pairs", "",
                          "--exponents", "1:1")
    assert code == 0
    assert json.loads(stdout) == []


def test_sweep_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code, _, _ = run(capsys, "sweep", "--pairs", "3:5", "--exponents", "1:1",
                     "--format", "csv", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2 and "theorem_holds" in lines[0]


def test_bad_grid_entry(capsys):
    code, _, err = run(capsys, "sweep", "--pairs", "3-5")
    assert code == 2 and "error:" in err
    # a digit to str.isdigit, not to int()
    code, _, err = run(capsys, "sweep", "--pairs", "3:\u00b2")
    assert (code, err) == (2, "error: bad prime pair entry '3:\u00b2'; "
                              "want A:B\n")


def test_long_bad_grid_entry_is_echoed_cut(capsys):
    # beyond int()'s digit limit: one short line, not the whole entry
    code, _, err = run(capsys, "sweep", "--pairs", "3:" + "1" * 5000)
    assert code == 2
    assert err.count("\n") == 1 and len(err) < 120
    assert err == ("error: bad prime pair entry '3:" + "1" * 38
                   + "'… (5002 characters); want A:B\n")


@pytest.mark.parametrize("argv", [
    ("generate", "--p", "3", "--q", "5"),
    ("analyze", "--p", "3", "--q", "5"),
    ("verify", "--p", "3", "--q", "5"),
    ("sweep", "--pairs", "3:5", "--exponents", "1:1"),
])
def test_unwritable_out(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out.txt"
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert err.startswith("error:") and "out.txt" in err


def _listing(directory):
    return {path.name: path.read_bytes() if path.is_file() else None
            for path in directory.iterdir()}


def _generate_fails(capsys, out, *extra):
    code, stdout, err = run(capsys, "generate", "--p", "3", "--q", "7",
                            *extra, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and str(out) in err
    assert err.count("\n") == 1
    # the path given, never the temporary name beside it
    assert f".{os.getpid()}" not in err


def test_generate_sidecar_is_a_directory(tmp_path, capsys):
    (tmp_path / "s.txt.json").mkdir()
    _generate_fails(capsys, tmp_path / "s.txt")
    assert _listing(tmp_path) == {"s.txt.json": None}
    # an existing digit file keeps its bytes
    (tmp_path / "s.txt").write_text("0123\n")
    _generate_fails(capsys, tmp_path / "s.txt")
    assert _listing(tmp_path) == {"s.txt.json": None, "s.txt": b"0123\n"}


def test_generate_names_the_out_path_of_a_missing_directory(tmp_path,
                                                            capsys):
    out = tmp_path / "missing" / "x.txt"
    code, stdout, err = run(capsys, "generate", "--p", "3", "--q", "5",
                            "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
    assert _listing(tmp_path) == {}


def test_generate_out_is_a_directory(tmp_path, capsys):
    (tmp_path / "d").mkdir()
    _generate_fails(capsys, tmp_path / "d")
    assert _listing(tmp_path) == {"d": None}
    # an existing sidecar keeps its bytes
    (tmp_path / "d.json").write_text("{}\n")
    _generate_fails(capsys, tmp_path / "d")
    assert _listing(tmp_path) == {"d": None, "d.json": b"{}\n"}


@pytest.mark.parametrize("failing", [".txt", ".json"])
def test_generate_keeps_an_existing_pair(tmp_path, capsys, monkeypatch,
                                         failing):
    # a pair for (3, 5); then a (3, 7) write whose digit file or sidecar
    # cannot take its place leaves both files as they were
    out = tmp_path / "s.txt"
    assert run(capsys, "generate", "--p", "3", "--q", "5",
               "--out", str(out))[0] == 0
    before = _listing(tmp_path)
    real = os.replace

    def replace(src, dst):
        if str(dst).endswith(failing):
            raise PermissionError(13, "Permission denied", str(dst))
        real(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    _generate_fails(capsys, out)
    assert _listing(tmp_path) == before


def test_generate_writes_with_the_default_mode(tmp_path, capsys):
    umask = os.umask(0)
    os.umask(umask)
    out = tmp_path / "s.txt"
    assert run(capsys, "generate", "--p", "3", "--q", "5",
               "--out", str(out))[0] == 0
    for path in (out, tmp_path / "s.txt.json"):
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
    # a file replaced keeps its mode
    out.chmod(0o600)
    assert run(capsys, "generate", "--p", "3", "--q", "7",
               "--out", str(out))[0] == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o600
    assert len(out.read_text()) == 43
    assert sorted(_listing(tmp_path)) == ["s.txt", "s.txt.json"]


def test_map_default_and_help_come_from_the_package_default(capsys):
    assert cli.DEFAULT_MAP == "2,3,1,0,1"
    parser = cli.build_parser()
    for argv in (["generate", "--p", "3", "--q", "5"], ["sweep"]):
        assert parser.parse_args(argv).map == "2,3,1,0,1"
    with pytest.raises(SystemExit):
        parser.parse_args(["verify", "--help"])
    assert "(default 2,3,1,0,1)" in " ".join(capsys.readouterr().out.split())


# Each call's flags must not leak into the next: --degenerate, --out and
# --cap are set on one call and left off the call after it.
SUCCESSIVE_CALLS = (
    ["generate", "--p", "3", "--q", "5", "--map", "2,3,1,0,3",
     "--degenerate", "--out", "seq.txt"],
    ["generate", "--p", "3", "--q", "5", "--map", "2,3,1,0,3",
     "--out", "seq2.txt"],
    ["analyze", "--file", "seq.txt", "--out", "file.json"],
    ["analyze", "--p", "3", "--q", "7", "--format", "text"],
    ["sweep", "--pairs", "3:5", "--exponents", "1:1", "--degenerate",
     "--format", "csv", "--out", "sweep.csv"],
    ["sweep", "--pairs", "3:5", "--exponents", "1:1"],
    ["verify", "--p", "3", "--q", "5", "--cap", "10"],
    ["verify", "--p", "3", "--q", "5", "--format", "csv"],
    ["analyze", "--p", "3", "--q", "5", "--map", "2,3,1,0,3",
     "--degenerate", "--cap", "1000"],
    ["analyze", "--p", "3", "--q", "5", "--map", "2,3,1,0,3"],
)


def _run_in(directory, capsys, monkeypatch, argv, fresh):
    monkeypatch.chdir(directory)
    if fresh:
        cli._shared_parser.cache_clear()
        clear_held()
    before = set(directory.iterdir())
    code = main(list(argv))
    captured = capsys.readouterr()
    written = {path.name: path.read_text()
               for path in sorted(set(directory.iterdir()) - before)}
    return code, captured.out, captured.err, written


def test_successive_calls_share_one_parser(tmp_path, capsys, monkeypatch):
    shared_dir, fresh_dir = tmp_path / "shared", tmp_path / "fresh"
    shared_dir.mkdir()
    fresh_dir.mkdir()
    cli._shared_parser.cache_clear()
    shared = [_run_in(shared_dir, capsys, monkeypatch, argv, fresh=False)
              for argv in SUCCESSIVE_CALLS]
    assert cli._shared_parser.cache_info().misses == 1
    fresh = [_run_in(fresh_dir, capsys, monkeypatch, argv, fresh=True)
             for argv in SUCCESSIVE_CALLS]
    assert [result[0] for result in shared] == [0, 2, 0, 0, 0, 0, 3, 0, 0, 2]
    for argv, one, other in zip(SUCCESSIVE_CALLS, shared, fresh):
        assert one == other, argv


def test_verify_caps_come_before_the_class_tables(capsys, monkeypatch,
                                                  cold_builds):
    # the caps come before the paint
    def no_classes(*args):
        raise AssertionError("a capped verify painted a partition")

    monkeypatch.setattr(cyclotomy, "_powers", no_classes)
    # the paint comes from _powers alone, so the patch bites
    with pytest.raises(AssertionError, match="painted a partition"):
        cyclotomy.build_system(3, 5, 1, 1)
    # N = 4 387 passes the N cap; ord_4387(4) = 530 exceeds the degree cap
    code, _, err = run(capsys, "verify", "--p", "41", "--q", "107")
    assert (code, err) == (3, "error: extension degree 530 exceeds the cap "
                              f"{limits.DEFAULT_DEGREE_CAP}\n")
    code, _, err = run(capsys, "verify", "--p", "71", "--q", "73")
    assert (code, err) == (3, "error: N = 5183 exceeds the verification cap "
                              f"{limits.VERIFY_N_CAP}\n")
    # invalid input still exits 2, before either cap
    for argv in (("--p", "4", "--q", "107"), ("--p", "41", "--q", "41"),
                 ("--p", "41", "--q", "107", "--m", "0"),
                 ("--p", "71", "--q", "73", "--map", "0,1")):
        code, _, err = run(capsys, "verify", *argv)
        assert code == 2 and err.startswith("error: "), argv
    code, _, err = run(capsys, "verify", "--p", "3", "--q", "5",
                       "--cap", "10")
    assert (code, err) == (3, "error: period 30 exceeds cap 10\n")


def _patch_cached_property(monkeypatch, name, derive):
    # the cached property name of CyclotomicSystem becomes one around derive
    prop = functools.cached_property(derive)
    prop.__set_name__(cyclotomy.CyclotomicSystem, name)
    monkeypatch.setattr(cyclotomy.CyclotomicSystem, name, prop)


def _outcome(capsys, argv, out):
    # exit code, stdout, stderr and the bytes of any pair generate wrote
    code, stdout, err = run(capsys, *argv)
    written = [pathlib.Path(name).read_bytes()
               for name in (out, out + ".json") if argv[0] == "generate"]
    return code, stdout, err, written


def test_only_verify_derives_the_class_tables(tmp_path, capsys,
                                              monkeypatch, cold_builds):
    # only verify reads the positions of a label, one doubled-modulus
    # H-set per char-sum column, at its first call on a system: with h_set
    # recorded, every command gives the same bytes and codes, and sweep,
    # analyze, generate and a verify stopped by the degree cap read none
    out = str(tmp_path / "s.txt")
    grid = ("--pairs", "3:5,7:17,5:3,17:41", "--exponents", "1:1,2:1")
    calls = [
        ("sweep",) + grid, ("sweep", "--degenerate") + grid,
        ("sweep", "--degenerate", "--pairs", "3:5", "--exponents", "1:1",
         "--map", "0,2,3,1,1", "--format", "csv"),
        ("sweep", "--pairs", "3:7", "--exponents", "1:1", "--map",
         "0,1,2,3,2", "--format", "text"),
        ("analyze", "--p", "3", "--q", "7"),
        ("analyze", "--p", "5", "--q", "3", "--m", "2", "--format", "csv"),
        ("analyze", "--p", "3", "--q", "5", "--map", "2,3,1,0,3",
         "--degenerate", "--format", "text"),
        ("generate", "--p", "3", "--q", "7", "--n", "2", "--out", out),
        ("analyze", "--file", out),
        ("generate", "--p", "3", "--q", "5", "--map", "0,1,2,3,1",
         "--degenerate", "--out", out),
        ("analyze", "--file", out, "--format", "text"),
        ("verify", "--p", "3", "--q", "5"),
        ("verify", "--p", "5", "--q", "3", "--m", "2"),
        ("verify", "--p", "3", "--q", "7", "--map", "0,1,2,3,2"),
        ("verify", "--p", "41", "--q", "107"),
    ]
    want = [_outcome(capsys, argv, out) for argv in calls]
    assert [w[0] for w in want] == [0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0,
                                    0, 0, 1, 3]
    read, real = [], cyclotomy.h_set

    def recorded(system, label):
        read.append(label)
        return real(system, label)

    monkeypatch.setattr(cyclotomy, "h_set", recorded)
    monkeypatch.setattr(extfield, "h_set", recorded)
    # verify checks each system once per process: cold again, every
    # verify that passes the caps reads its columns, and then no repeat
    clear_held()
    for argv, expected in zip(calls, want):
        read.clear()
        assert _outcome(capsys, argv, out) == expected, argv
        verified = argv[0] == "verify" and expected[0] != 3
        assert bool(read) == verified, argv
        assert {label.shape for label in read} <= set(DOUBLED_SHAPES), argv
    read.clear()
    for argv, expected in zip(calls, want):
        assert _outcome(capsys, argv, out) == expected, argv
    assert read == []


def _csv_rows(text):
    # a sweep's csv rows, without the cells a wider header leaves empty
    return [{k: v for k, v in row.items() if v != ""}
            for row in csv.DictReader(io.StringIO(text))]


def test_sweep_builds_each_system_once(capsys, monkeypatch):
    pairs, exponents = ("3:5", "3:3", "5:7"), ("1:1", "2:1")
    argv = ("sweep", "--degenerate", "--format", "csv")
    # the one-system sweeps, in grid order
    alone = [run(capsys, *argv, "--pairs", pq, "--exponents", mn)
             for pq in pairs for mn in exponents]
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return cyclotomy.build_system(*args, **kwargs)

    monkeypatch.setattr(cli, "build_system", counted)
    code, out, _ = run(capsys, *argv, "--pairs", ",".join(pairs),
                       "--exponents", ",".join(exponents))
    assert code == max(c for c, _, _ in alone) == 2
    rows = _csv_rows(out)
    assert rows == [row for _, text, _ in alone for row in _csv_rows(text)]
    assert out.splitlines()[0].split(",") == sorted(
        {k for _, text, _ in alone for k in text.splitlines()[0].split(",")})
    # each valid system is built once; a build that fails (p = q) is not
    # kept, so each of its rows tries again
    per_system = Counter((int(r["p"]), int(r["q"]), int(r["m"]), int(r["n"]))
                         for r in rows)
    retried = {k: c for k, c in per_system.items() if k[0] == k[1]}
    assert Counter(builds) == {k: 1 for k in per_system} | retried
    assert len(per_system) == 6 and sorted(retried.values()) == [2, 2]
    assert all(r["error"].startswith("InvalidParams: ") for r in rows
               if r["p"] == r["q"])


def _spy_on_paints(monkeypatch):
    # the (p, q, m, n) of each system painted from here on, in order
    painted, real = [], cyclotomy._system_from_constants

    def spy(c):
        painted.append((c.p, c.q, c.m, c.n))
        return real(c)

    monkeypatch.setattr(cyclotomy, "_system_from_constants", spy)
    return painted


def test_sweeps_in_one_process_paint_each_system_once(capsys, monkeypatch,
                                                     cold_builds):
    # one sweep per mapping over one grid: the first paints, the rest, an
    # analyze and a verify of a grid system reuse
    painted = _spy_on_paints(monkeypatch)
    grid = ("--pairs", "3:5,3:7,5:7", "--exponents", "1:1,2:1")
    first = run(capsys, "sweep", *grid)
    assert run(capsys, "sweep", *grid) == first
    for argv in (("--map", "0,1,2,3,2"), ("--degenerate",)):
        run(capsys, "sweep", *grid, *argv)
    assert run(capsys, "analyze", "--p", "5", "--q", "7", "--m", "2")[0] == 0
    assert Counter(painted) == {(p, q, m, n): 1 for p, q in
                                ((3, 5), (3, 7), (5, 7))
                                for m, n in ((1, 1), (2, 1))}
    # a held system is still checked against each call's cap
    assert run(capsys, "analyze", "--p", "3", "--q", "5", "--cap", "29") \
        == (3, "", "error: period 30 exceeds cap 29\n")
    painted.clear()
    assert run(capsys, "verify", "--p", "3", "--q", "5")[0] == 0
    assert painted == []


def test_verify_calls_in_one_process_paint_each_system_once(capsys,
                                                          monkeypatch,
                                                          cold_builds):
    # verify takes its system from build_system: a second verify of one
    # system, under another mapping or format, repaints nothing
    painted = _spy_on_paints(monkeypatch)
    first = run(capsys, "verify", "--p", "3", "--q", "5")
    assert first[0] == 0 and painted == [(3, 5, 1, 1)]
    assert run(capsys, "verify", "--p", "3", "--q", "5") == first
    for argv in (("--map", "0,1,2,3,2"), ("--format", "csv")):
        assert run(capsys, "verify", "--p", "3", "--q", "5", *argv)[0] == 0
    assert painted == [(3, 5, 1, 1)]
    # the held system is still checked against each call's cap
    assert run(capsys, "verify", "--p", "3", "--q", "5", "--cap", "29") \
        == (3, "", "error: period 30 exceeds cap 29\n")
    assert run(capsys, "verify", "--p", "5", "--q", "3", "--m", "2")[0] == 0
    assert painted == [(3, 5, 1, 1), (5, 3, 2, 1)]


def test_sweep_rows_read_only_the_held_bucket_cells(capsys, monkeypatch,
                                                    cold_builds):
    # a held system derives its bucket-cell table at its first row, and
    # every row's LC is one bucket_lc walk over it: no row calls
    # predict_lc, gathers digits, makes gf4 planes or runs the gcd route
    derived, seqs, walks, predicted, planes = [], [], [], [], []
    real = cyclotomy.CyclotomicSystem.__dict__["bucket_cells"].func

    def derive(system):
        c = system.constants
        derived.append((c.p, c.q, c.m, c.n))
        return real(system)

    def spy(log, func):
        # func, each result logged
        def call(*args, **kwargs):
            log.append(func(*args, **kwargs))
            return log[-1]
        return call

    _patch_cached_property(monkeypatch, "bucket_cells", derive)
    for module in (cli, analysis):
        monkeypatch.setattr(module, "bucket_lc",
                            spy(walks, analysis.bucket_lc))
        monkeypatch.setattr(module, "build_sequence",
                            spy(seqs, sequence.build_sequence))
    for module in (cells, extfield):
        monkeypatch.setattr(module, "predict_lc",
                            spy(predicted, cells.predict_lc))
    assert not hasattr(cli, "predict_lc")
    for module, name in ((gf4, "to_planes"), (gf4, "gcd_planes"),
                         (analysis, "lc_via_gcd")):
        monkeypatch.setattr(module, name,
                            lambda *args, name=name: planes.append(name))
    grid = ("--pairs", "3:5,7:17,5:3", "--exponents", "1:1,2:1")
    for argv in ((), ("--map", "1,0,2,3,1"), ("--degenerate",)):
        # (7, 17) has degenerate rows below the floor: exit 1
        code = run(capsys, "sweep", *grid, *argv)[0]
        assert code == ("--degenerate" in argv)
    assert Counter(derived) == {(p, q, m, n): 1 for p, q in
                                ((3, 5), (7, 17), (5, 3))
                                for m, n in ((1, 1), (2, 1))}
    assert len(walks) == len(seqs) == 6 + 6 + 10
    assert predicted == planes == []
    for seq in seqs:
        assert "symbols" not in vars(seq)


def test_sweep_json_holds_one_row_per_line(capsys):
    code, out, _ = run(capsys, "sweep", "--pairs", "3:5,3:3,3:7",
                       "--exponents", "1:1,2:1", "--degenerate")
    rows, lines = json.loads(out), out.splitlines()
    assert code == 2 and len(rows) == 12
    assert lines[0] == "[" and lines[-1] == "]" and out.endswith("]\n")
    assert [json.loads(line.rstrip(",")) for line in lines[1:-1]] == rows
    code, csv_out, _ = run(capsys, "sweep", "--pairs", "3:5,3:3,3:7",
                           "--exponents", "1:1,2:1", "--degenerate",
                           "--format", "csv")
    assert [{k: str(v) for k, v in cli._flatten(row).items()}
            for row in rows] == _csv_rows(csv_out)
    # analyze and verify keep their indented reports
    for argv in (("analyze", "--p", "3", "--q", "5"),
                 ("verify", "--p", "3", "--q", "5")):
        _, out, _ = run(capsys, *argv)
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


def test_default_sweep_searches_one_root_per_prime(capsys, cold_builds):
    # 12 systems over the primes 3, 5, 7 and 11: 24 lookups, 4 searches
    root = numtheory.smallest_odd_primitive_root_mod_p2
    root.cache_clear()
    code, out, _ = run(capsys, "sweep")
    assert code == 0 and len(json.loads(out)) == 12
    info = root.cache_info()
    assert (info.misses, info.hits) == (4, 20)


@pytest.mark.parametrize("m", ["10000", "1000000000"])
def test_huge_exponent_exits_3(capsys, m):
    # the period is multiplied up only until it passes the cap
    code, out, err = run(capsys, "analyze", "--p", "3", "--q", "5", "--m", m)
    assert (code, out) == (3, "")
    assert err == f"error: period 2 * 3^{m} * 5^1 exceeds cap 10000000\n"


def test_huge_prime_meets_the_cap_before_trial_division(capsys, monkeypatch):
    def no_trial_division(n):
        raise AssertionError("is_prime ran before the cap")

    monkeypatch.setattr(numtheory, "is_prime", no_trial_division)
    # 10^15 + 1 is composite, and still the cap answers first
    for p in ("100000000000031", "1000000000000001"):
        code, _, err = run(capsys, "analyze", "--p", p, "--q", "5")
        assert code == 3
        assert err == f"error: period 2 * {p}^1 * 5^1 exceeds cap 10000000\n"


def test_sweep_row_with_huge_exponent(capsys):
    code, out, _ = run(capsys, "sweep", "--pairs", "3:5",
                       "--exponents", "10000:1,1:1")
    rows = json.loads(out)
    assert code == 1
    assert rows[0]["m"] == 10000 and rows[0]["error"] == (
        "CapExceeded: period 2 * 3^10000 * 5^1 exceeds cap 10000000")
    assert rows[1]["theorem_holds"] is True


def _error_classes(base=errors.CycloseqError):
    for cls in base.__subclasses__():
        yield cls
        yield from _error_classes(cls)


# the documented exit code of each refusal; every other class is exit 1
REFUSAL_CODES = {errors.InvalidParams: 2, errors.InvalidMapping: 2,
                 errors.CapExceeded: 3, errors.MalformedSequenceFile: 4}
ERROR_ARGS = {errors.InvalidMapping: (["detail"],),
              errors.PartitionViolation: (7, "detail"),
              errors.CaseViolation: (1, "detail", "detail")}


@pytest.mark.parametrize("cls", list(_error_classes()),
                         ids=lambda cls: cls.__name__)
def test_every_error_class_maps_to_an_exit_code(tmp_path, capsys,
                                                monkeypatch, cls):
    # raised from inside a command, each package error is one stderr line
    # and its documented code, never a traceback
    def fail(args):
        raise cls(*ERROR_ARGS.get(cls, ("detail",)))

    monkeypatch.setattr(cli, "_sequence_from_args", fail)
    code, out, err = run(capsys, "generate", "--p", "3", "--q", "5",
                         "--out", str(tmp_path / "s.txt"))
    assert (code, out) == (REFUSAL_CODES.get(cls, 1), "")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "detail" in err
    assert not list(tmp_path.iterdir())


# a cap that would admit 2 * 3^40 * 5, whose array no numpy can allocate
BIG_CAP = "100000000000000000000000"
CEILING_ERROR = "period 2 * 3^40 * 5^1 exceeds the period ceiling 2147483647"


def test_period_ceiling_holds_past_any_cap(capsys):
    code, out, err = run(capsys, "analyze", "--p", "3", "--q", "5",
                         "--m", "40", "--cap", BIG_CAP)
    assert (code, out, err) == (3, "", f"error: {CEILING_ERROR}\n")
    code, out, _ = run(capsys, "sweep", "--pairs", "3:5",
                       "--exponents", "40:1,1:1", "--cap", BIG_CAP)
    rows = json.loads(out)
    assert code == 1
    assert rows[0]["error"] == f"CapExceeded: {CEILING_ERROR}"
    assert rows[1]["theorem_holds"] is True


@pytest.mark.parametrize("error, line", [
    (MemoryError(), "out of memory"),
    (MemoryError("Unable to allocate 9.62 GiB"),
     "Unable to allocate 9.62 GiB")])
def test_memory_error_exits_3_with_one_line(tmp_path, capsys, monkeypatch,
                                            cold_builds, error, line):
    # numpy's allocation failure is a MemoryError with a one-line message
    def out_of_memory(*args):
        raise error

    monkeypatch.setattr(cyclotomy, "_powers", out_of_memory)
    code, out, err = run(capsys, "generate", "--p", "3", "--q", "5",
                         "--out", str(tmp_path / "s.txt"))
    assert (code, out, err) == (3, "", f"error: {line}\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 1.28 GiB"),
     "MemoryError: Unable to allocate 1.28 GiB"),
    (MemoryError(), "MemoryError: out of memory")])
def test_sweep_keeps_its_rows_on_memory_error(capsys, monkeypatch, error,
                                              message):
    # the second system's build runs out of memory: its row says so, and
    # the rows before and after it stay
    def build(p, q, m, n, cap):
        if (p, q) == (3, 7):
            raise error
        return cyclotomy.build_system(p, q, m, n, cap=cap)

    monkeypatch.setattr(cli, "build_system", build)
    code, out, err = run(capsys, "sweep", "--pairs", "3:5,3:7,5:7",
                         "--exponents", "1:1")
    rows = json.loads(out)
    assert (code, err) == (1, "")
    assert [r.get("lc") for r in rows] == [30, None, 70]
    assert rows[1] == {"p": 3, "q": 7, "m": 1, "n": 1,
                       "mapping": "2,3,1,0,1", "error": message}


def _sweep_rows(capsys, *argv):
    code, out, _ = run(capsys, "sweep", *argv)
    return code, [(r["mapping"], r.get("lc"), r.get("theorem_holds"),
                   r.get("lower_bound"), r.get("error")) for r in
                  json.loads(out)]


def test_sweep_runs_no_berlekamp_massey(capsys, monkeypatch):
    def absent(*args, **kwargs):
        raise AssertionError("sweep ran Berlekamp-Massey")

    monkeypatch.setattr(analysis, "berlekamp_massey", absent)
    monkeypatch.setattr(np, "tile", absent)
    assert _sweep_rows(capsys, "--pairs", "3:5,3:7",
                       "--exponents", "1:1,2:1") == (0, [
        ("2,3,1,0,1", 30, True, None, None),
        ("2,3,1,0,1", 90, True, None, None),
        ("2,3,1,0,1", 42, True, None, None),
        ("2,3,1,0,1", 126, True, None, None)])
    assert _sweep_rows(capsys, "--degenerate", "--pairs", "3:5,3:7",
                       "--exponents", "1:1") == (0, [
        ("2,3,1,0,2", 16, False, 12, None),
        ("2,3,1,0,3", 30, True, 12, None),
        ("2,3,1,0,2", 28, False, 16, None),
        ("2,3,1,0,3", 33, False, 16, None)])
    assert _sweep_rows(capsys, "--degenerate", "--pairs", "3:5",
                       "--exponents", "1:1", "--map", "0,2,3,1,1") == (1, [
        ("0,2,3,1,1", None, None, None, "TheoremViolation: complexity 9 "
         "below the floor 12 for mapping (0, 2, 3, 1, 1)"),
        ("0,2,3,1,2", 30, True, 12, None)])


@pytest.mark.parametrize("degenerate", [(), ("--degenerate",)])
def test_sweep_rows_check_the_closed_form(capsys, monkeypatch, cold_builds,
                                          degenerate):
    # against a closed form one bucket's E away from the measured table,
    # every row of the system carries the table check's error: exit 1
    table = cells._cell_sums(3, 5, 1, 1)
    stub = (table[0][:4] + (3 << 2,) + table[0][5:],) + table[1:]
    monkeypatch.setattr(cyclotomy, "_cell_sums", lambda *params: stub)
    code, rows = _sweep_rows(capsys, *degenerate, "--pairs", "3:5",
                             "--exponents", "1:1")
    assert code == 1 and len(rows) == 1 + len(degenerate)
    for _, lc, _, _, error in rows:
        assert lc is None and error == (
            "MethodDisagreement: bucket basis gives c (E, O) = (2, 0) on "
            "cell (0, 0, 0, 0), the closed form (3, 0)")


def _quiet_main(argv):
    """main(argv) with its output dropped; argparse's own exit is returned
    as its code, which must be 2."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return 2


# text near the parsers' grammar, plus digits that only str.isdigit knows;
# the grid runs under a small cap so that no row gets expensive
ARG_TEXT = st.text(st.sampled_from("0123456789:,- \t\u00b2\u0661x") |
                   st.characters(blacklist_categories=("Cs",)), max_size=16)


@settings(deadline=None)
@given(ARG_TEXT)
@example("2,3,1,0,\u00b2")
@example("2,3,\u0661,0,1")
@example("2,3,1,0," + "0" * 4999 + "1")  # beyond int()'s digit limit
def test_any_map_text_exits_with_a_code(text):
    for argv in (["analyze", "--p", "3", "--q", "5"],
                 ["sweep", "--pairs", "3:5", "--exponents", "1:1",
                  "--degenerate"]):
        assert _quiet_main(argv + ["--map", text]) in (0, 1, 2)


@settings(deadline=None)
@given(ARG_TEXT)
@example("3:\u00b2")
@example("\u0663:5")
@example("3:" + "1" * 5000)
def test_any_pairs_text_exits_with_a_code(text):
    assert _quiet_main(["sweep", "--pairs", text, "--exponents", "1:1",
                        "--cap", "2000"]) in (0, 1, 2)


@settings(deadline=None)
@given(ARG_TEXT)
@example("1:\u00b2")
@example("1:" + "1" * 5000)
def test_any_exponents_text_exits_with_a_code(text):
    assert _quiet_main(["sweep", "--pairs", "3:5", "--exponents", text,
                        "--cap", "2000"]) in (0, 1, 2)


@settings(deadline=None)
@given(st.binary(max_size=64) | st.text("0123\n", max_size=64).map(str.encode))
@example(b"\xff\xfe0123\n")
@example(b"021202131312030103020313130212\n")
def test_any_file_bytes_exit_0_or_4(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "seq.txt"
    path.write_bytes(data)
    assert _quiet_main(["analyze", "--file", str(path)]) in (0, 4)


# --- what verify holds: the field per N, the checks on each system --------

VERIFY_GRID = json.loads((pathlib.Path(__file__).resolve().parent.parent
                          / "perfbench" / "reference"
                          / "verify-grid.json").read_text())


def _verify_argv(key, *extra):
    p, q, m, n = key.split(",")
    return ("verify", "--p", p, "--q", q, "--m", m, "--n", n) + extra


def _spy_checks(monkeypatch):
    # calls of verify's mapping-independent steps, by name, and of
    # check_residue_rules, which verify must not call
    counts = Counter()
    for module, name in ((extfield, "check_structural_lemmas"),
                         (cyclotomy, "check_residue_rules"),
                         (extfield, "verify_char_sum_tables"),
                         (extfield, "_power_table")):
        def spy(*args, _real=getattr(module, name), _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, spy)
    return counts


def _fresh_process(argv):
    # exit code, stdout and stderr of argv in a new interpreter
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from cycloseq.cli import main; "
                               "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    return done.returncode, done.stdout, done.stderr


def _held_report(*params):
    # the char-sum report the held system keeps, or None
    return vars(cyclotomy.build_system(*params)).get("char_sums")


def _report_bytes(chars):
    return sum(a.nbytes for a in (chars.table, chars.leaders, chars.firsts,
                                  chars.col))


def test_a_repeat_verify_reads_its_checks_back(capsys, monkeypatch,
                                               cold_builds):
    # d = 12 at N = 4 097, then a second accepted mapping, then the first
    # again: the first call checks, the others read the held checks back,
    # and each prints what a fresh process prints
    assert "0,1,2,3,1" in VERIFY_GRID["17,241,1,1"]["accepted"]
    first = _verify_argv("17,241,1,1")
    second = _verify_argv("17,241,1,1", "--map", "0,1,2,3,1")
    counts = _spy_checks(monkeypatch)
    want = _fresh_process(first)
    assert want[0] == 0 and run(capsys, *first) == want
    assert counts["check_structural_lemmas"] == 1
    assert counts["check_residue_rules"] == 0
    assert counts["verify_char_sum_tables"] == 1
    assert counts["_power_table"] == 2  # beta's table and the periods'
    counts.clear()
    assert run(capsys, *second) == _fresh_process(second) != want
    assert run(capsys, *first) == want
    assert not counts


def test_a_cold_verify_derives_each_table_once(capsys, monkeypatch,
                                              cold_builds):
    # a cold verify builds one set of constants, one cell map (the
    # partition check and the expected rows share it) and one power table
    # where N = pq, as w = beta^(N/pq) is beta; at (5, 41, 2, 1) w is not
    # beta, so two tables. A warm verify builds its constants, for the
    # caps, and no table and no map
    constants = []
    real = numtheory.build_system_constants
    for module in (cli, cyclotomy):
        monkeypatch.setattr(module, "build_system_constants",
                            lambda *args, **kw: constants.append(args)
                            or real(*args, **kw))
    memos = extfield._power_table, cells.cell_index

    def made():
        return ([memo.cache_info().misses for memo in memos]
                + [len(constants)])

    for params, tables in (((3, 5, 1, 1), 1), ((5, 41, 2, 1), 2)):
        argv = _verify_argv(",".join(map(str, params)))
        for memo in memos:
            memo.cache_clear()
        constants.clear()
        assert run(capsys, *argv)[0] == 0
        assert made() == [tables, 1, 1], params
        assert run(capsys, *argv)[0] == 0
        assert made() == [tables, 1, 2], params


def test_a_repainted_system_is_checked_again(capsys, monkeypatch,
                                             cold_builds):
    # a system dropped from build_system's memo and painted again is a new
    # object, and its first verify checks it again
    argv = ("verify", "--p", "3", "--q", "5")
    want = run(capsys, *argv)
    old = cyclotomy.build_system(3, 5, 1, 1)
    counts = _spy_checks(monkeypatch)
    assert run(capsys, *argv) == want and not counts
    fresh_held()
    assert run(capsys, *argv) == want
    assert counts == {"check_structural_lemmas": 1,
                      "verify_char_sum_tables": 1, "_power_table": 1}
    assert counts["check_residue_rules"] == 0
    new = cyclotomy.build_system(3, 5, 1, 1)
    assert new is not old
    assert vars(new)["char_sums"] is not vars(old)["char_sums"]


def test_a_failing_check_raises_at_every_call(capsys, monkeypatch,
                                              cold_builds):
    # a check that raises holds nothing: the closed form of the char sums
    # off by 1 in one family, then a paint with two labels swapped
    argv = ("verify", "--p", "3", "--q", "7")
    real = extfield.cell_char_sums

    def off(*args):
        sums = real(*args)
        sums[0] ^= 1
        return sums

    monkeypatch.setattr(extfield, "cell_char_sums", off)
    for _ in range(2):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("violation: mixed-modulus character sum off "
                              "its closed form")
    assert _held_report(3, 7, 1, 1) is None
    monkeypatch.undo()
    paint = cyclotomy._system_from_constants

    def swapped(constants):
        system = paint(constants)
        part = system.partition.copy()
        part[[1, 3]] = part[[3, 1]]
        return dataclasses.replace(system, partition=part)

    monkeypatch.setattr(cyclotomy, "_system_from_constants", swapped)
    fresh_held()
    try:
        assert cyclotomy.build_system(3, 7, 1, 1).partition[1] != \
            cyclotomy.build_system(3, 7, 1, 1).partition[3]
        for _ in range(2):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err.startswith("violation: partition differs from its "
                                  "cells' labels")
        assert _held_report(3, 7, 1, 1) is None
    finally:
        # the swapped paint is held; no later test may build it
        fresh_held()


def test_a_stubbed_closed_form_lc_raises_at_every_call(capsys, monkeypatch,
                                                       cold_builds):
    # _cell_sums feeds predict_lc, a step of each mapping: the held checks
    # stay held, and every call compares the verdicts again
    argv = ("verify", "--p", "3", "--q", "7")
    assert run(capsys, *argv)[0] == 0
    held = _held_report(3, 7, 1, 1)
    monkeypatch.setattr(cells, "_cell_sums",
                        lambda p, q, m, n: ((p * q, 0, 0, 0, 0, 0),))
    for _ in range(2):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("violation: all_values_nonzero = True")
    assert held is not None and _held_report(3, 7, 1, 1) is held


def test_a_report_goes_with_its_system(capsys, monkeypatch, cold_builds):
    # periods 30, 42, 70 in a 142-position memo, least recently used out
    # first: a verify of an evicted system paints and checks it again, and
    # one of a held system reads its checks back
    monkeypatch.setattr(cyclotomy, "HELD", cyclotomy._HeldSystems(142))

    def verify(*pqs):
        counts.clear()
        for p, q in pqs:
            assert run(capsys, "verify", "--p", str(p), "--q", str(q))[0] == 0
        assert counts["check_residue_rules"] == 0
        return counts["verify_char_sum_tables"], [
            key[:2] for key in cyclotomy.HELD.systems]

    counts = _spy_checks(monkeypatch)
    assert verify((3, 5), (3, 7), (5, 7)) == (3, [(3, 5), (3, 7), (5, 7)])
    assert verify((3, 5)) == (0, [(3, 7), (5, 7), (3, 5)])
    # (5, 3) evicts (3, 7), and (3, 7) then evicts (5, 7)
    assert verify((5, 3)) == (1, [(5, 7), (3, 5), (5, 3)])
    assert verify((3, 7)) == (1, [(3, 5), (5, 3), (3, 7)])
    assert verify((3, 5), (5, 3), (3, 7)) == (0, [(3, 5), (5, 3), (3, 7)])


def test_the_verify_grid_is_held_whole(capsys, monkeypatch, cold_builds):
    # visited cyclically, the LRU worst case, all 19 verify-grid systems
    # hit on the second pass: no check and no field is made again
    argvs = [_verify_argv(key) for key in VERIFY_GRID]
    assert len(argvs) == 19
    counts = _spy_checks(monkeypatch)
    want = [run(capsys, *argv) for argv in argvs]
    assert [w[0] for w in want] == [0] * 19
    assert counts["check_residue_rules"] == 0
    counts.clear()
    assert [run(capsys, *argv) for argv in argvs] == want
    assert not counts
    reports = [_held_report(*map(int, key.split(","))) for key in VERIFY_GRID]
    # 41 389 bytes: a row per orbit and an int8 column map of Z_N (a row
    # per k and int64 H-sets took 1.17 MB)
    assert sum(map(_report_bytes, reports)) <= 0.045 * 2**20
    fields = extfield.build_extension.cache_info()
    assert fields.maxsize == limits.HELD_FIELDS == 64
    assert fields.currsize == len({VERIFY_GRID[key]["N"]
                                   for key in VERIFY_GRID})


def test_every_system_verify_accepts_fits_its_memos(cold_builds):
    # the caps N <= 5 000 and d <= 12 pass 52 values of N, so every field
    # fits HELD_FIELDS. Their 104 systems (p and q both ways) keep one
    # uint32 table row per nonzero cell of Z_N (20 at most), its int64
    # leader, each doubled-modulus column's least position (int64) and an
    # int8 column map of Z_N: 0.115 MB of reports in all, where a row per
    # k and each column's int64 H-set would take over 2.5 MB
    fields = []
    for N in range(3, limits.VERIFY_N_CAP + 1, 2):
        with contextlib.suppress(errors.CycloseqError):
            fields.append(extfield.build_extension(N))
    assert len(fields) == 52 <= limits.HELD_FIELDS
    assert extfield.build_extension.cache_info().currsize == 52
    total = per_k = 0
    for ctx in fields:
        (p, m), (q, n) = numtheory.factorize(ctx.N).items()
        for params in ((p, q, m, n), (q, p, n, m)):
            system = cyclotomy.build_system(*params)
            chars = system.char_sums
            rows = len(list(cells.cells(*params))) - 1
            columns = [system.labels.index(c) for c in system.labels[2::2]]
            assert chars.table.shape == (rows, len(columns)) and rows <= 20
            assert chars.col.dtype == np.int8 and chars.col.shape == (ctx.N,)
            size = 4 * rows * len(columns) + 8 * rows + 8 * len(columns)
            assert _report_bytes(chars) == size + ctx.N, params
            total += size + ctx.N
            per_k += (4 * (ctx.N - 1) * len(columns)
                      + 8 * int(np.isin(system.partition, columns).sum()))
    assert 2.5 * 2**20 < per_k < 3 * 2**20
    assert 0.11 * 2**20 < total < 0.12 * 2**20


def test_held_tables_are_read_only(capsys, cold_builds):
    assert run(capsys, "verify", "--p", "3", "--q", "5")[0] == 0
    system = cyclotomy.build_system(3, 5, 1, 1)
    chars, context = system.char_sums, extfield.build_extension(15)
    for array in (chars.table, chars.leaders, chars.firsts, chars.col,
                  context.beta_powers, context.modulus, system.partition):
        with pytest.raises(ValueError):
            array[0] ^= 1
        with pytest.raises(ValueError):
            array += 1
    with pytest.raises(TypeError):
        chars.columns[0] = chars.columns[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        chars.table = chars.table.copy()
