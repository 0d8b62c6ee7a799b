"""Seeded operation lists for each workload, and the checks on their outputs.

An operation is one argv for cycloseq.cli.main. The seed picks the mapping
of every operation and the order of the operations; the program receives
only the argv and the files earlier operations wrote. After a pass, every
output is compared with the reference answers in perfbench/reference; a
mismatch is a wrong answer, which fails the run. A call or sweep row that
ends in an exception class, or a call that exits 2 or more, is a failed
operation, recorded by its class.
"""

import hashlib
import json
import os
import random
import re
from collections import Counter
from dataclasses import dataclass, field

import systems
from systems import key, period

HERE = os.path.dirname(os.path.abspath(__file__))


def load_reference(workload):
    with open(os.path.join(HERE, "reference", f"{workload}.json")) as fh:
        return json.load(fh)


def _params_argv(system, mapping, degenerate):
    p, q, m, n = system
    argv = ["--p", str(p), "--q", str(q), "--m", str(m), "--n", str(n),
            "--map", key(mapping)]
    return argv + (["--degenerate"] if degenerate else [])


@dataclass
class Op:
    """One cli.main call, what it should produce, and how to check it."""

    argv: list
    out: str
    check: object
    expect: dict = field(default_factory=dict)


@dataclass
class Tally:
    """Outcome of checking one pass."""

    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    failures_by_mod8: Counter = field(default_factory=Counter)

    def fail(self, cls, count=1, system=None):
        self.failed += count
        self.failures[cls] += count
        if system is not None:
            self.failures_by_mod8[f"{system[0] % 8},{system[1] % 8}"] += count


def _digest(digits):
    return hashlib.sha256(digits.encode()).hexdigest()[:16]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _call_failed(tally, outcome, count=1):
    """Count a call that raised or exited >= 2; True if it did."""
    code, exc = outcome
    if exc is not None:
        tally.fail(exc, count)
        return True
    if code >= 2:
        tally.fail(f"exit {code}", count)
        return True
    return False


def _check_lc(tally, where, payload, ref, P):
    lc = payload.get("lc_gcd")
    if (payload.get("lc_bm") != lc or lc != ref["lc"]
            or payload.get("methods_agree") is not True
            or payload.get("theorem_holds") != (lc == P)
            or _digest(payload.get("minimal_polynomial", ""))
            != ref["minpoly"]):
        tally.wrong.append(f"{where}: lc {payload.get('lc_bm')}/{lc}, "
                           f"reference {ref['lc']}")


# --- analyze-ladder ---------------------------------------------------------

def _check_analyze(op, outcome, tally):
    tally.attempted += 1
    if _call_failed(tally, outcome):
        return
    payload = _read_json(op.out)
    P = op.expect["period"]
    if outcome[0] != 0 or payload.get("period") != P:
        tally.wrong.append(f"{op.argv}: exit {outcome[0]}, "
                           f"period {payload.get('period')}")
        return
    _check_lc(tally, " ".join(op.argv[:-2]), payload, op.expect["ref"], P)


def _check_generate(op, outcome, tally):
    tally.attempted += 1
    if _call_failed(tally, outcome):
        return
    with open(op.out) as fh:
        digits = fh.read().strip()
    meta = _read_json(op.out + ".json")
    p, q, m, n = op.expect["system"]
    if (outcome[0] != 0 or len(digits) != op.expect["period"]
            or (meta["p"], meta["q"], meta["m"], meta["n"]) != (p, q, m, n)
            or key(meta["mapping"][f] for f in "abcde") != op.expect["map"]):
        tally.wrong.append(f"{op.argv}: wrote {len(digits)} symbols, "
                           f"sidecar {meta}")


def analyze_ladder(rng, ref, tmp):
    units = []

    def draw(system, base):
        mp = key(rng.choice(systems.orbit(base)))
        entry = ref[key(system)][mp]
        assert entry["lc"] == period(system), (system, mp)
        return mp, entry

    for system in systems.LADDER:
        mp, entry = draw(system, systems.DEFAULT_BASE)
        out = os.path.join(tmp, f"analyze-{key(system)}.json")
        argv = (["analyze"] + _params_argv(system, mp.split(","),
                                           entry["degenerate"])
                + ["--format", "json", "--out", out])
        units.append([Op(argv, out, _check_analyze,
                         {"period": period(system), "ref": entry})])
    for system in systems.FILE_SYSTEMS:
        mp, entry = draw(system, systems.FILE_BASE)
        seq = os.path.join(tmp, f"seq-{key(system)}.txt")
        out = os.path.join(tmp, f"file-{key(system)}.json")
        gen = (["generate"] + _params_argv(system, mp.split(","),
                                           entry["degenerate"])
               + ["--out", seq])
        ana = ["analyze", "--file", seq, "--format", "json", "--out", out]
        units.append([
            Op(gen, seq, _check_generate,
               {"system": system, "period": period(system), "map": mp}),
            Op(ana, out, _check_analyze,
               {"period": period(system), "ref": entry})])
    rng.shuffle(units)
    return [op for unit in units for op in unit]


# --- verify-grid ------------------------------------------------------------

def _check_verify(op, outcome, tally):
    tally.attempted += 1
    if _call_failed(tally, outcome):
        return
    sysref, ref = op.expect["system_ref"], op.expect["ref"]
    payload = _read_json(op.out)
    chars, case = payload.get("char_sums", {}), payload.get("case_table", {})
    lc = payload.get("linear_complexity", {})
    observed = [case.get("s_at_1"), case.get("value_generic"),
                case.get("value_p_saturated"), case.get("value_q_saturated")]
    if (outcome[0] != 0 or payload.get("partition_ok") is not True
            or chars.get("cells_checked") != sysref["cells_checked"]
            or chars.get("k_count") != sysref["k_count"]
            or case.get("checked") != sysref["checked"]
            or observed != ref["case"]
            or case.get("all_values_nonzero") is not True):
        tally.wrong.append(f"{op.argv[:-4]}: exit {outcome[0]}, "
                           f"char sums {chars}, case table {case}")
        return
    _check_lc(tally, " ".join(op.argv[:-4]), lc, ref, 2 * sysref["N"])


def verify_grid(rng, ref, tmp):
    ops = []
    for system in systems.VERIFY_GRID:
        sysref = ref[key(system)]
        mp = key(rng.choice(systems.orbit(systems.DEFAULT_BASE)))
        out = os.path.join(tmp, f"verify-{key(system)}.json")
        argv = (["verify"] + _params_argv(system, mp.split(","), False)
                + ["--format", "json", "--out", out])
        ops.append(Op(argv, out, _check_verify,
                      {"system_ref": sysref, "ref": sysref["accepted"][mp]}))
    rng.shuffle(ops)
    return ops


# --- sweep-mappings ---------------------------------------------------------

_REPORTED_LC = re.compile(r"complexity (\d+)")


def _check_sweep_row(row, op, tally):
    system = (row.get("p"), row.get("q"), row.get("m"), row.get("n"))
    entry = op.expect["ref"].get(key(system), {}).get(row.get("mapping"))
    if entry is None:
        tally.wrong.append(f"{op.argv}: unexpected row {row}")
        return True
    P = period(system)
    if "error" in row:
        cls, _, message = row["error"].partition(":")
        tally.fail(cls, system=system)
        reported = _REPORTED_LC.search(message)
        if reported and int(reported.group(1)) != entry["lc"]:
            tally.wrong.append(f"{op.argv}: {row['error']}, "
                               f"reference lc {entry['lc']}")
        return True
    lc = row.get("lc")
    ok = (lc == entry["lc"] and row.get("period") == P
          and row.get("theorem_holds") == (lc == P))
    if op.expect["degenerate"]:
        p, q, m, n = system
        floor = (p**m + 1) * (q**n + 1) // 2
        ok = (ok and row.get("lower_bound") == floor
              and row.get("bound_ok") == (lc >= floor))
        holds = row.get("bound_ok")
    else:
        holds = row.get("theorem_holds")
    if not ok:
        tally.wrong.append(f"{op.argv}: row {row}, reference lc {entry['lc']}")
    return not holds


def _check_sweep(op, outcome, tally):
    if _call_failed(tally, outcome, op.expect["rows"]):
        tally.attempted += op.expect["rows"]
        return
    rows = _read_json(op.out)
    tally.attempted += len(rows)
    seen = [(r.get("p"), r.get("q"), r.get("mapping")) for r in rows]
    if op.expect["degenerate"]:
        # the e values swept are the program's choice; the rest is fixed
        perm = op.expect["perm"]
        shape_ok = ({(p, q, mp[:7]) for p, q, mp in seen}
                    == {(p, q, perm) for p, q in op.expect["pairs"]})
    else:
        shape_ok = sorted(seen) == sorted(
            (p, q, op.expect["map"]) for p, q in op.expect["pairs"])
    if not shape_ok or len(set(seen)) != len(seen):
        tally.wrong.append(f"{op.argv}: rows {seen}")
        return
    any_bad = False
    for row in rows:
        any_bad |= _check_sweep_row(row, op, tally)
    if outcome[0] != int(any_bad):
        tally.wrong.append(f"{op.argv}: exit {outcome[0]}, "
                           f"rows failed {any_bad}")


def sweep_mappings(rng, ref, tmp):
    ops = []
    for group in systems.SWEEP_GROUPS:
        pairs = ",".join(f"{p}:{q}" for p, q in group)
        grid_ref = {key((p, q, 1, 1)): ref[key((p, q, 1, 1))]
                    for p, q in group}
        head = ref[key(group[0] + (1, 1))]
        for perm in systems.PERMUTATIONS:
            forbidden = [e for e in (1, 2, 3)
                         if head[key(perm + (e,))]["degenerate"]]
            calls = [(key(perm + (e,)), False, len(group))
                     for e in (1, 2, 3) if e not in forbidden]
            if forbidden:
                # --map carries a forbidden e; which one does not matter
                calls.append((key(perm + (rng.choice(forbidden),)), True,
                              len(group) * len(forbidden)))
            for mp, degenerate, rows in calls:
                out = os.path.join(tmp, f"sweep-{len(ops)}.json")
                argv = (["sweep", "--pairs", pairs, "--exponents", "1:1",
                         "--map", mp]
                        + (["--degenerate"] if degenerate else [])
                        + ["--format", "json", "--out", out])
                ops.append(Op(argv, out, _check_sweep, {
                    "ref": grid_ref, "pairs": group, "map": mp,
                    "perm": key(perm), "degenerate": degenerate,
                    "rows": rows}))
    rng.shuffle(ops)
    return ops


BUILDERS = {
    "analyze-ladder": analyze_ladder,
    "verify-grid": verify_grid,
    "sweep-mappings": sweep_mappings,
}


def build_ops(workload, seed, tmp):
    """The seeded operation list; the same seed gives the same list."""
    ref = load_reference(workload)
    return BUILDERS[workload](random.Random(seed), ref, tmp)
