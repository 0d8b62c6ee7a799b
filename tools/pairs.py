#!/usr/bin/env python3
"""Alternating benchmark pairs of two source trees, and their verdicts.

Usage: python tools/pairs.py PARENT CHANGE --workload W [--pairs 10]
           [--seed 1] [--seconds 30] [--claim METRIC] [--out PATH]

PARENT and CHANGE are two directories, each holding a whole tree (src/,
perfbench/ and BENCHMARK.json), best each exported from git into a
directory of its own: perfbench/run.py times read where a checkout sits.
Pair i runs `perfbench/run.py --workload W --seed SEED+i --seconds S
--trace 0` once in each tree, one run at a time, the parent first on even
i and the change first on odd i, and reads the last line of each run.

It writes BENCH_<workload>.json (or --out) in the layout of the checked-in
BENCH files: per end-to-end metric of BENCHMARK.json and per side the
runs, median, q1 and q3 (statistics.quantiles, exclusive method), the
change's wins (pairs where it read better; ties count for neither) and
the median change in percent. A metric is "unresolved" where the parent's
spread (q3 - q1) / median exceeds the metric's bound in BENCHMARK.json,
unless every change run reads better than every parent run. With --claim
the claim's verdict is "met" when the change wins at least nine tenths
of the pairs and its median is better than the parent's by more than the
parent's quartile distance, else "not met". The tool reads BENCHMARK.json
and runs perfbench/run.py; it imports and changes nothing under
perfbench/.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata

RULE = ("change wins >= 9 of 10 alternating pairs and the median gap "
        "exceeds the parent's quartile distance")
SIDES = ("parent", "change")


def quartiles(values):
    """(q1, median, q3) of values; q1 = q3 = the value of a single run."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(parent, change, better, bound):
    """One metric's entry: each side's runs and quartiles, the change's
    wins over the pairs, its median change and whether it is resolved."""
    sign = 1 if better == "lower" else -1
    entry = {}
    for side, runs in zip(SIDES, (parent, change)):
        q1, median, q3 = quartiles(runs)
        entry[side] = {"median": median, "q1": q1, "q3": q3,
                       "runs": list(runs)}
    p = entry["parent"]
    entry["change_wins"] = sum(sign * (c - a) < 0
                               for a, c in zip(parent, change))
    entry["median_change_pct"] = round(
        100 * (entry["change"]["median"] - p["median"]) / p["median"], 2)
    spread = (p["q3"] - p["q1"]) / p["median"]
    entry["parent_spread_pct"] = round(100 * spread, 2)
    entry["unresolved"] = spread > bound and not all(
        sign * (c - a) < 0 for a in parent for c in change)
    return entry


def claim_verdict(entry, better):
    """'met' by the rule RULE names on one compare() entry, else 'not met'."""
    sign = 1 if better == "lower" else -1
    p, c = entry["parent"], entry["change"]
    pairs = len(p["runs"])
    gap = sign * (p["median"] - c["median"])
    won = entry["change_wins"] >= math.ceil(0.9 * pairs)
    return "met" if won and gap > p["q3"] - p["q1"] else "not met"


def run_once(tree, workload, seed, seconds):
    """The parsed last line of one untraced run of perfbench/run.py in tree."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def src_lines(tree):
    total = 0
    for dirpath, _, files in os.walk(os.path.join(tree, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--claim")
    ap.add_argument("--out")
    return ap.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    if args.claim is not None and args.claim not in declared:
        raise SystemExit(f"--claim {args.claim}: not an end-to-end metric")
    seeds = [args.seed + i for i in range(args.pairs)]
    records = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            tree = args.parent if side == "parent" else args.change
            records[side].append(run_once(tree, args.workload, seed,
                                          args.seconds))
        print(f"pair {i + 1}/{args.pairs} seed {seed} done", file=sys.stderr)

    metrics = {}
    for name, spec in declared.items():
        runs = [[r["metrics"][name]["value"] for r in records[side]]
                for side in SIDES]
        metrics[name] = {"unit": spec["unit"], "bound": spec["bound"],
                         **compare(*runs, spec["better"], spec["bound"])}
    bench = {"workload": args.workload}
    if args.claim is not None:
        better = declared[args.claim]["better"]
        bench["claim"] = {"metric": args.claim, "better": better,
                          "rule": RULE, "verdict": claim_verdict(
                              metrics[args.claim], better)}
    bench.update({
        "command": (f"python3 perfbench/run.py --workload {args.workload} "
                    f"--seed SEED --seconds {args.seconds} --trace 0"),
        "method": (f"{args.pairs} alternating pairs (parent first on "
                   "even-indexed seeds), each side run in its own tree "
                   "directory, one run at a time, by tools/pairs.py; values "
                   "are the runs' speed-scaled metrics"),
        "host": {"python": platform.python_version(),
                 "numpy": metadata.version("numpy"),
                 "nproc": os.cpu_count()},
        "seeds": seeds,
        "src_lines": {side: src_lines(tree) for side, tree
                      in zip(SIDES, (args.parent, args.change))},
        "correct": all(r["correct"] for side in SIDES
                       for r in records[side]),
        "failed_rows": {**{side: sorted({r["failed"] for r in records[side]})
                           for side in SIDES},
                        "attempted": records["change"][0]["attempted"]},
        "metrics": metrics,
    })
    out = args.out or f"BENCH_{args.workload}.json"
    with open(out, "w") as fh:
        json.dump(bench, fh, indent=2)
        fh.write("\n")
    for name, m in metrics.items():
        print(f"{name:12s} {m['parent']['median']:.6g} "
              f"[{m['parent']['q1']:.6g}-{m['parent']['q3']:.6g}] -> "
              f"{m['change']['median']:.6g} ({m['median_change_pct']:+.2f}%, "
              f"{m['change_wins']} of {args.pairs})"
              f"{' unresolved' if m['unresolved'] else ''}")
    if "claim" in bench:
        print(f"claim {args.claim}: {bench['claim']['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
