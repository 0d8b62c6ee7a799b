"""cycloseq benchmark: one run of one workload.

    python3 perfbench/run.py --workload analyze-ladder --seed 1 --trace 0

Run from the repository root. The program is imported from src/, so
nothing needs building. Workloads (see NOTES.md for why each exists):

  analyze-ladder  analyze over periods 2 450 .. 20 250, plus generate and
                  analyze --file on two of the smaller systems
  verify-grid     verify on all 19 systems with 500 <= N <= 5 000, d <= 12
  sweep-mappings  132 sweep calls covering all 72 mappings on 16 pairs,
                  one per (p mod 8, q mod 8) class

A run spawns a few setup probes and then one worker interpreter (see
worker.py), each single-threaded. The number of passes is fixed by the
workload and --seconds, never by how fast the passes go, so every run of
a workload does the same work and the same number of calls is pooled.
Every time reported is scaled to the reference host speed by the probes
in speed.py; the raw times are on the summary line and in the record.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of traced passes, timed against
untraced passes in the same worker. Every output is checked against the
reference answers; a wrong answer makes "correct" false. A record of the
run is written to perfbench/out/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from speed import probe, speed_factor

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

# Passes per run at --seconds 30, scaled with --seconds and never below
# three. A pass takes 7 to 11 s on a 2-core x86 host. The count depends on
# the workload only, never on how fast the passes go, so every run of a
# workload pools the same calls. analyze-ladder makes four because one call
# is three quarters of its pass, so its passes vary the most. Three
# workloads of 22 runs each must fit in 3 420 s, so the others make three.
PASSES_AT_30S = {"analyze-ladder": 4, "verify-grid": 3, "sweep-mappings": 3}
MIN_PASSES = 3
SETUP_PROBES = 8
SPEED_PROBES = 5
DEADLINE_S = 170
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PASSES_AT_30S))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def plan_passes(workload, seconds, trace):
    passes = max(MIN_PASSES, round(PASSES_AT_30S[workload] * seconds / 30))
    # a traced run pairs each traced pass with an untraced one
    return max(4, 2 * ((passes + 1) // 2)) if trace else passes


def spawn_worker(args, extra, deadline):
    """Run worker.py to the end and return its last stdout line, parsed."""
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--tmp", tmp] + extra
    env = dict(os.environ, **WORKER_ENV)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise SystemExit(f"only {n} call timings; need at least 11")
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_probe(args, deadline):
    """Raw and scaled setup_s of one fresh worker.

    The host is probed from this process just before the worker starts and
    just after it ends, as nothing can probe inside the new interpreter
    before it has set up.
    """
    before = [probe() for _ in range(SPEED_PROBES)]
    setup_s = spawn_worker(args, ["--probe"], deadline)["setup_s"]
    after = [probe() for _ in range(SPEED_PROBES)]
    return setup_s, setup_s * speed_factor(before + after)


def end_to_end(raw, setups):
    op_tail, pct = tail(raw["durations"])
    values = {
        "setup_s": statistics.median(s for _, s in setups),
        "wall_s": statistics.median(raw["walls"]),
        "op_p50_s": statistics.median(raw["durations"]),
        "op_tail_s": op_tail,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    raw_values = {
        "setup_s": statistics.median(r for r, _ in setups),
        "wall_s": statistics.median(raw["raw_walls"]),
        "op_p50_s": statistics.median(raw["raw_durations"]),
        "op_tail_s": tail(raw["raw_durations"])[0],
    }
    notes = {"op_tail_percentile": pct, "op_samples": len(raw["durations"]),
             "raw": raw_values, "setup_samples": [s for _, s in setups],
             "pass_walls": raw["walls"], "raw_pass_walls": raw["raw_walls"]}
    return values, notes


def per_layer(raw):
    traced = raw["traced"]
    counts = traced[0]["counts"]
    repeat = all(t["counts"] == counts for t in traced[1:])
    values = dict(counts)
    for name in traced[0]["times"]:
        values[name] = statistics.median(t["times"][name] for t in traced)
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    untraced_wall = statistics.median(raw["walls"])
    values["trace.overhead_s"] = traced_wall - untraced_wall
    notes = {"counts_repeat": repeat,
             "traced_walls": [t["wall_s"] for t in traced],
             "untraced_walls": raw["walls"],
             "raw_traced_walls": [t["raw_wall_s"] for t in traced],
             "raw_untraced_walls": raw["raw_walls"]}
    return values, notes, repeat


def git_commit(root):
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines(root):
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def main(argv):
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cycloseq", "cli.py")):
        print("error: run from the repository root; src/cycloseq not found",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    passes = plan_passes(args.workload, args.seconds, args.trace)
    # Everything runs on one vCPU: the host-speed probes then read the CPU
    # the work runs on, and no worker starts cold on another one.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})

    setups = []
    if not args.trace:
        setups = [setup_probe(args, deadline) for _ in range(SETUP_PROBES)]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = (["--spans", os.path.join(OUT, stem + ".spans.jsonl.gz")]
             if args.trace else [])
    raw = spawn_worker(args, ["--passes", str(passes)] + spans, deadline)

    if args.trace:
        values, notes, repeat = per_layer(raw)
    else:
        values, notes = end_to_end(raw, setups)
        repeat = True
    correct = raw["wrong_count"] == 0 and repeat
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes,
        "ops_per_pass": raw["ops_per_pass"],
        "git_commit": git_commit(root), "python": raw["python"],
        "numpy": raw["numpy"], "nproc": len(cpus), "cpu": max(cpus),
        "src_lines": src_lines(root), "correct": correct,
        "attempted": raw["attempted"], "failed": raw["failed"],
        "error_share": raw["failed"] / raw["attempted"],
        "failures": raw["failures"],
        "failures_by_mod8": raw["failures_by_mod8"],
        "wrong": raw["wrong"], "metrics": values, "notes": notes,
    }
    with open(os.path.join(OUT, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    for line in raw["wrong"]:
        print("WRONG:", line)
    print(json.dumps({k: record[k] for k in
                      ("workload", "seed", "passes", "error_share", "failures",
                       "failures_by_mod8", "notes")}))
    print(json.dumps({
        "correct": correct, "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
