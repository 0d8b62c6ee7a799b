"""End-to-end runs of the command line through main(argv)."""

import json

import pytest

from cycloseq import cli
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
