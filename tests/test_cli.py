"""End-to-end runs of the command line through main(argv)."""

import contextlib
import csv
import io
import json
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycloseq import cli, cyclotomy, numtheory
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


def test_verify_vanishing_regime_is_a_violation(capsys):
    # e = b + d at (3,7) passes the gate but cannot reach full complexity
    code, _, err = run(capsys, "verify", "--p", "3", "--q", "7",
                       "--map", "0,3,1,2,1")
    assert code == 1 and "violation:" in err


def test_verify_caps(capsys):
    code, _, err = run(capsys, "verify", "--p", "71", "--q", "73")
    assert code == 3 and "error:" in err
    # N = 143 is under the N cap, but ord_143(4) = 30 exceeds the degree cap
    code, _, err = run(capsys, "verify", "--p", "11", "--q", "13")
    assert code == 3 and "error:" in err
    code, _, err = run(capsys, "verify", "--p", "3", "--q", "5",
                       "--cap", "10")
    assert code == 3


def test_cap_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CYCLOSEQ_CAP", "10")
    out = tmp_path / "s.txt"
    code, _, err = run(capsys, "generate", "--p", "3", "--q", "5",
                       "--out", str(out))
    assert code == 3
    # explicit flag outranks the environment
    code, _, _ = run(capsys, "generate", "--p", "3", "--q", "5",
                     "--cap", "100", "--out", str(out))
    assert code == 0
    monkeypatch.setenv("CYCLOSEQ_CAP", "lots")
    code, _, err = run(capsys, "generate", "--p", "3", "--q", "5",
                       "--out", str(out))
    assert code == 2 and "CYCLOSEQ_CAP" in err


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


def test_verify_caps_come_before_the_class_tables(capsys, monkeypatch):
    def no_classes(*args):
        raise AssertionError("a capped verify built a class table")

    monkeypatch.setattr(cyclotomy, "build_class", no_classes)
    # N = 4 387 passes the N cap; ord_4387(4) = 530 exceeds the degree cap
    code, _, err = run(capsys, "verify", "--p", "41", "--q", "107")
    assert (code, err) == (3, "error: extension degree 530 exceeds the cap "
                              "12\n")
    code, _, err = run(capsys, "verify", "--p", "71", "--q", "73")
    assert (code, err) == (3, "error: N = 5183 beyond the verification cap "
                              "5000\n")
    # invalid input still exits 2, before either cap
    for argv in (("--p", "4", "--q", "107"), ("--p", "41", "--q", "41"),
                 ("--p", "41", "--q", "107", "--m", "0"),
                 ("--p", "71", "--q", "73", "--map", "0,1")):
        code, _, err = run(capsys, "verify", *argv)
        assert code == 2 and err.startswith("error: "), argv
    code, _, err = run(capsys, "verify", "--p", "3", "--q", "5",
                       "--cap", "10")
    assert (code, err) == (3, "error: period 30 exceeds cap 10\n")


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
