#!/usr/bin/env python3
"""One digest of what the CLI answers, to compare two source trees.

Usage: python tools/answers.py [--src PATH]

Imports cycloseq from PATH (default: this repository's src/), then calls
cycloseq.cli.main in process, in a fresh temporary directory, over a fixed
list of calls:

- analyze and verify on each analyze-ladder and verify-grid system of
  perfbench/systems.py, at the default mapping and at one mapping below
  full LC (analyze with --degenerate; verify, which has no such flag,
  exits 1 or 2 there);
- verify at the default mapping on every system verify's caps pass
  (N = p^m q^n <= 5 000 and the order of 4 mod N at most 12), both prime
  orders: 104 systems, so every char-sum table the field route measures;
- the plain and the --degenerate sweep over each sweep-mappings group;
- one generate and analyze --file round trip;
- analyze --file on two files that are no construction, written from a
  fixed seed: 2 * 5 005 random digits (full LC) and a block of 7 tiled
  over 2 * 1 001 (LC at most 7);
- the packaging pins of CI that finish within seconds;
- calls that exit 1, 2, 3 and 4.

For each call it prints a SHA-256 over the argv, the exit code, stdout,
stderr and the name and bytes of every file the call wrote, then the call,
and last a total: the SHA-256 over the per-call digests in order. Two
trees answer the same when their totals are equal. File names are
relative to the temporary directory, so no digest depends on where it is.
"""

import argparse
import contextlib
import hashlib
import io
import os
import pathlib
import random
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from systems import LADDER, SWEEP_GROUPS, VERIFY_GRID  # noqa: E402

# 0,1,2,3,2 is below full LC on every ladder and grid system but these,
# where 0,1,2,3,3 is
BELOW_FULL_LC = {(11, 13, 1, 2): "0,1,2,3,3", (3, 5, 4, 3): "0,1,2,3,3",
                 (3, 19, 3, 1): "0,1,2,3,3", (3, 683, 1, 1): "0,1,2,3,3"}


def _params(system):
    p, q, m, n = system
    return ["--p", str(p), "--q", str(q), "--m", str(m), "--n", str(n)]


def _caps_pass_systems():
    """(p, q, m, n) and (q, p, n, m) for every N = p^m q^n <= 5 000 with
    4 of order at most 12 mod N, found here by trial division, not by the
    tree under test."""
    out = []
    for N in range(3, 5001, 2):
        if not any(pow(4, d, N) == 1 for d in range(1, 13)):
            continue
        fac, x = {}, N
        for r in range(3, N + 1, 2):
            while x % r == 0:
                fac[r], x = fac.get(r, 0) + 1, x // r
            if x == 1:
                break
        if len(fac) == 2:
            (p, m), (q, n) = fac.items()
            out += [(p, q, m, n), (q, p, n, m)]
    return out


def calls():
    """Every argv, in order; a call may read files earlier calls wrote."""
    out = []
    for system in LADDER + VERIFY_GRID:
        below = ["--map", BELOW_FULL_LC.get(system, "0,1,2,3,2")]
        out += [["analyze"] + _params(system),
                ["analyze"] + _params(system) + below + ["--degenerate"],
                ["verify"] + _params(system),
                ["verify"] + _params(system) + below]
    out += [["verify"] + _params(system) for system in _caps_pass_systems()]
    for group in SWEEP_GROUPS:
        pairs = ",".join(f"{p}:{q}" for p, q in group)
        out += [["sweep", "--pairs", pairs, "--exponents", "1:1"],
                ["sweep", "--degenerate", "--pairs", pairs,
                 "--exponents", "1:1"]]
    out += [
        # the round trip, text and csv reports
        ["generate"] + _params(LADDER[1]) + ["--out", "seq.txt"],
        ["analyze", "--file", "seq.txt", "--format", "text"],
        ["verify", "--p", "3", "--q", "5", "--format", "csv",
         "--out", "v.csv"],
        # files that are no construction, at full LC and far below it
        ["analyze", "--file", "random.txt"],
        ["analyze", "--file", "tiled.txt"],
        # CI's packaging pins, in its order
        ["verify", "--p", "3", "--q", "5"],
        ["analyze", "--p", "3", "--q", "5"],
        ["generate", "--p", "3", "--q", "7", "--out", "seq37.txt"],
        ["analyze", "--file", "seq37.txt"],
        ["sweep", "--pairs", "3:5,3:7", "--exponents", "1:1"],
        ["verify", "--p", "5", "--q", "3", "--m", "2"],
        ["verify", "--p", "17", "--q", "3"],
        ["verify", "--p", "17", "--q", "257"],
        ["verify", "--p", "17", "--q", "241"],
        ["verify", "--p", "7", "--q", "73"],
        ["verify", "--p", "7", "--q", "17"],
        ["verify", "--p", "3", "--q", "19", "--m", "3"],
        ["analyze", "--p", "7", "--q", "11", "--m", "3", "--n", "2",
         "--map", "2,1,3,0,1", "--degenerate"],
        ["analyze", "--p", "61", "--q", "79", "--map", "0,1,2,3,2",
         "--degenerate"],
        ["analyze", "--p", "3", "--q", "5", "--m", "4", "--n", "3"],
        ["analyze", "--p", "7", "--q", "11", "--m", "4", "--n", "3"],
        ["analyze", "--p", "1997", "--q", "2003"],
        ["analyze", "--p", "3", "--q", "5", "--m", "9", "--n", "3"],
        ["generate", "--p", "7", "--q", "11", "--m", "3", "--n", "3",
         "--out", "big.txt"],
        ["sweep", "--pairs", "7:11", "--exponents", "3:3"],
        ["sweep", "--degenerate", "--pairs", "7:11", "--exponents", "4:3",
         "--map", "2,1,3,0,2"],
        ["sweep", "--degenerate", "--pairs", "1999:2003",
         "--exponents", "1:1"],
        ["generate", "--p", "3", "--q", "5", "--m", "4", "--n", "3",
         "--out", "ladder.txt"],
        ["sweep", "--degenerate", "--pairs", "3:5,3:7", "--exponents", "1:1"],
        ["sweep", "--pairs", "17:41,17:3,17:5,17:7,7:17,7:3,7:5,7:23,3:17,"
         "3:11,3:5,3:7,5:17,5:3,5:13,5:7", "--exponents", "1:1,2:1,1:2"],
        ["sweep", "--degenerate", "--pairs", "3:19,19:3",
         "--exponents", "3:1,1:3", "--map", "2,1,3,0,1"],
        # exit 1: item 1 of ROADMAP.md, LC 36 < 42 and LC 9 below the floor
        ["verify", "--p", "3", "--q", "7", "--map", "0,1,2,3,2"],
        ["sweep", "--degenerate", "--pairs", "3:5", "--exponents", "1:1",
         "--map", "0,2,3,1,1"],
        # exit 2: a forbidden mapping, a digit that is not ASCII, a sidecar
        # name taken by a directory, a mapping with no forbidden e
        ["generate", "--p", "3", "--q", "5", "--map", "1,1,1,1,1",
         "--out", "g.txt"],
        ["verify", "--p", "3", "--q", "5", "--map", "1,1,1,1,1"],
        ["analyze", "--p", "3", "--q", "5", "--map", "2,3,1,0,²"],
        ["generate", "--p", "3", "--q", "5", "--out", "s.txt"],
        ["sweep", "--degenerate", "--pairs", "7:3", "--exponents", "1:1",
         "--map", "2,1,3,1,1"],
        # exit 3: the degree cap, the N cap, the period cap and ceiling, a
        # file longer than --cap
        ["verify", "--p", "41", "--q", "107"],
        ["verify", "--p", "71", "--q", "73"],
        ["analyze", "--p", "3", "--q", "5", "--m", "10000"],
        ["analyze", "--p", "3", "--q", "5", "--m", "40",
         "--cap", "100000000000000000000000"],
        ["analyze", "--file", "seq37.txt", "--cap", "10"],
        # exit 4: a sequence file that is not UTF-8
        ["analyze", "--file", "bad.txt"],
    ]
    return out


def _files(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()
            if path.is_file()}


def run(main, argv, directory):
    """The digest of one call and its exit code."""
    before = _files(directory)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing an argument
            code = exc.code
    digest = hashlib.sha256()
    for part in (repr(argv), repr(code), out.getvalue(), err.getvalue()):
        digest.update(part.encode() + b"\0")
    for name, data in sorted(_files(directory).items()):
        if before.get(name) != data:
            digest.update(name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest(), code


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the directory that holds the cycloseq package "
                             "(default: %(default)s)")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from cycloseq import cli

    total = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        # what the exit-4 call reads and the exit-2 sidecar call meets
        (directory / "bad.txt").write_bytes(b"\xff")
        (directory / "s.txt.json").mkdir()
        rng = random.Random(52)
        digits = "".join(str(rng.randrange(4)) for _ in range(2 * 5005))
        (directory / "random.txt").write_text(digits + "\n")
        block = "".join(str(rng.randrange(4)) for _ in range(7))
        (directory / "tiled.txt").write_text(block * (2 * 1001 // 7) + "\n")
        os.chdir(directory)
        try:
            for argv in calls():
                digest, code = run(cli.main, argv, directory)
                total.update(digest.encode())
                print(digest, code, " ".join(argv))
        finally:
            os.chdir(cwd)
    print("total", total.hexdigest())


if __name__ == "__main__":
    main()
