"""One benchmark interpreter: set up, run the passes, check, report.

Started by run.py with the monotonic clock reading taken just before the
process was spawned (--t0), so setup_s covers interpreter start, the
import of cycloseq from src/, loading the reference answers and building
the argv list. With --probe it stops there and reports setup_s only.

Every pass runs the same seeded operation list through cycloseq.cli.main
in this process, one call at a time, with stdout and stderr captured.
Host-speed probes (speed.py) run around and during every call; each call
is timed raw and scaled to the reference speed. With --trace 1, passes
alternate untraced and traced (untraced first); the end-to-end numbers
come from untraced passes only. The last line of stdout is one JSON
object with the measurements.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--probe", action="store_true")
    return ap.parse_args(argv)


def setup(args):
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    import cycloseq.cli
    import workloads
    ops = workloads.build_ops(args.workload, args.seed, args.tmp)
    return cycloseq.cli, ops


def run_pass(cli, ops, sampler):
    """Call cli.main once per op.

    Returns per-op raw seconds (probe time taken out), per-op seconds
    scaled to the reference speed, and the outcomes.
    """
    durations, scaled, outcomes = [], [], []
    sink = io.StringIO()
    clock = time.perf_counter
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for op in ops:
            sampler.begin()
            t = clock()
            try:
                outcome = (cli.main(op.argv), None)
            except SystemExit as exc:
                outcome = (exc.code if isinstance(exc.code, int) else 2, None)
            except Exception as exc:  # a failed op, recorded by its class
                outcome = (None, type(exc).__name__)
            raw = clock() - t - sampler.spent
            durations.append(raw)
            scaled.append(raw * sampler.end())
            outcomes.append(outcome)
    return durations, scaled, outcomes


def main(argv):
    args = parse_args(argv)
    cli, ops = setup(args)
    setup_s = time.monotonic() - args.t0
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    import workloads
    from speed import Sampler
    from tracer import Tracer
    os.makedirs(args.tmp, exist_ok=True)
    tracer = Tracer() if args.trace else None
    sampler = Sampler()
    walls, raw_walls, durations, raw_durations, traced = [], [], [], [], []
    tally = workloads.Tally()
    span_log = []
    for i in range(args.passes):
        tracing = tracer is not None and i % 2 == 1
        if tracing:
            tracer.reset()
            tracer.install()
        sampler.install()
        try:
            raw, scaled, outcomes = run_pass(cli, ops, sampler)
        finally:
            sampler.uninstall()
            if tracing:
                tracer.uninstall()
        if tracing:
            counts, self_s = tracer.summary()
            counts["cli.out_bytes"] = sum(os.path.getsize(op.out)
                                          for op in ops
                                          if os.path.exists(op.out))
            traced.append({"counts": counts, "times": self_s,
                           "wall_s": sum(scaled), "raw_wall_s": sum(raw)})
            span_log.append(list(tracer.spans))
        else:
            walls.append(sum(scaled))
            raw_walls.append(sum(raw))
            durations.extend(scaled)
            raw_durations.extend(raw)
        for op, outcome in zip(ops, outcomes):
            try:
                op.check(op, outcome, tally)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                tally.wrong.append(f"{op.argv}: unreadable output ({exc!r})")
        shutil.rmtree(args.tmp)
        os.makedirs(args.tmp)
    if args.spans and span_log:
        write_spans(args.spans, span_log)

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "setup_s": setup_s,
        "walls": walls,
        "raw_walls": raw_walls,
        "durations": durations,
        "raw_durations": raw_durations,
        "traced": traced,
        "peak_rss_mb": peak_kib / 1024,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong[:20],
        "wrong_count": len(tally.wrong),
        "failures": dict(tally.failures),
        "failures_by_mod8": dict(sorted(tally.failures_by_mod8.items())),
        "ops_per_pass": len(ops),
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }))
    return 0


def write_spans(path, span_log):
    """One JSON line per span: pass, name, start, end, parent, raised."""
    import gzip
    with gzip.open(path, "wt") as fh:
        for k, spans in enumerate(span_log):
            for span in spans:
                fh.write(json.dumps([k] + span) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
