"""Command-line surface: generate, analyze, verify, sweep.

Exit codes: 0 success, 1 verification violation or failed sweep row
(also a row that runs out of memory: it records "MemoryError: ..." and
the sweep keeps its other rows), 2 invalid parameters or mapping (also
when a sweep row fails on one), or an OSError on a file such as an --out
path that cannot be written, 3 cap exceeded or memory run out, 4
malformed sequence file. The limits module holds every cap and budget
and raises every cap's error. build_extension caps verify on the
constants `verify` builds before it takes its system; a cold build_system
paints from those same constants, so a verify builds them once.

In the verify report, partition_ok: true rests on two routes: the paint,
from the powers of g and y, raises PartitionViolation (exit 1) on an index
left unlabeled or on more writes than Z_2N has indices, and
check_structural_lemmas compares it with the labels that the cells of Z_N
name from p and q alone (LemmaViolation, exit 1). residue_violations: 0
rests on that comparison too, as the cells' labels obey the mod-8 rule.

Every command gets its systems from cyclotomy.build_system, which holds
what it painted, so later main() calls in one process repaint no system;
each call still checks its own --cap.

verify keeps more for the process, all of it read-only. Only cmd_verify
imports extfield (cyclotomy's char_sums imports it at first read too), so
generate, analyze and sweep never compile it. extfield.build_extension
holds one field per N, and each held system keeps what verify checks
once per system, its char_sums (extfield.checked_char_sums: the
comparison, then the char-sum table), which goes with the system when
build_system's store drops it. The report is one table row per orbit of
Z_N (one per nonzero cell, at most 20), their leaders and an int8 column
map of Z_N: about 0.12 MB over the 104 systems the caps pass, not a row
per k.
Each verify still calls build_extension first, so its caps refuse before
any paint; a later verify of a held system in the same process then runs
only the steps that read the mapping: build_sequence (the gate),
verify_case_table off the held table, and verify_theorem. A system
painted again is a new object and is checked again, and a check that
raises keeps nothing, so a failing system fails at every call.
"""

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import replace

from .analysis import (analyze_degenerate, analyze_symbols, bucket_lc,
                       verify_theorem)
from .cyclotomy import build_system
from .errors import (CapExceeded, CaseViolation, CycloseqError,
                     InvalidMapping, InvalidParams, LemmaViolation,
                     MalformedSequenceFile, MethodDisagreement,
                     PartitionViolation, TheoremViolation)
from .limits import (DEFAULT_PARAM_CAP, ECHO_CHARS, PERIOD_CEILING,
                     check_period)
from .numtheory import build_system_constants
from .sequence import (DEFAULT_MAPPING, Mapping, build_sequence,
                       forbidden_e, parse_ascii_int, read_sequence_file,
                       write_sequence_file)

DEFAULT_MAP = ",".join(str(v) for v in DEFAULT_MAPPING.as_tuple())
DEFAULT_PAIRS = "3:5,3:7,5:7,3:11"
DEFAULT_EXPONENTS = "1:1,2:1,1:2"
CAP_HELP = (f"period cap on 2 p^m q^n and an analyze --file length (default "
            f"%(default)s); no cap lifts it past the ceiling {PERIOD_CEILING}")


def _parse_grid(pairs_text, exponents_text):
    def parse_list(text, what):
        text = text.strip()
        if not text:
            return []
        out = []
        for item in text.split(","):
            parts = [parse_ascii_int(s) for s in item.split(":")]
            if len(parts) != 2 or None in parts:
                shown = (repr(item) if len(item) <= ECHO_CHARS else
                         f"{item[:ECHO_CHARS]!r}… ({len(item)} characters)")
                raise InvalidParams(f"bad {what} entry {shown}; want A:B")
            out.append(tuple(parts))
        return out

    pairs = parse_list(pairs_text, "prime pair")
    exponents = parse_list(exponents_text, "exponent pair")
    return [(p, q, m, n) for p, q in pairs for m, n in exponents]


def _emit(payload, fmt, out_path=None):
    if fmt == "json" and isinstance(payload, list):
        # one sweep row per line, by json's C encoder, which indent bypasses
        text = "[\n" + ",\n".join(map(json.dumps, payload)) + "\n]\n"
    elif fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        rows = [_flatten(r) for r in
                (payload if isinstance(payload, list) else [payload])]
        buf = io.StringIO()
        if fmt == "csv" and rows:
            writer = csv.DictWriter(
                buf, fieldnames=sorted({k for r in rows for k in r}))
            writer.writeheader()
            writer.writerows(rows)
        elif fmt == "text":
            for r in rows:
                buf.write("  ".join(f"{k}={r[k]}" for k in sorted(r)) + "\n")
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten(d, prefix=""):
    out = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        elif isinstance(v, list):
            out[key] = ";".join(str(x) for x in v)
        else:
            out[key] = v
    return out


def _sequence_from_args(args):
    mapping = Mapping.from_text(args.map)
    system = build_system(args.p, args.q, args.m, args.n, cap=args.cap)
    return build_sequence(system, mapping, allow_degenerate=args.degenerate)


def cmd_generate(args):
    seq = _sequence_from_args(args)
    out = args.out or f"seq_p{args.p}q{args.q}m{args.m}n{args.n}.txt"
    write_sequence_file(seq, out)
    print(f"wrote {seq.period} symbols to {out} (sidecar {out}.json)")
    return 0


def cmd_analyze(args):
    if args.file:
        symbols = read_sequence_file(args.file)
        if len(symbols) % 2 or (len(symbols) // 2) % 2 == 0:
            raise MalformedSequenceFile(
                "sequence length must be twice an odd number")
        check_period(len(symbols), args.cap)
        report = analyze_symbols(symbols)
        payload = {"source": args.file, "period": len(symbols)}
    else:
        if args.p is None or args.q is None:
            raise InvalidParams("give --file or the parameters --p/--q")
        seq = _sequence_from_args(args)
        report = analyze_symbols(seq.symbols)
        payload = {"p": args.p, "q": args.q, "m": args.m, "n": args.n,
                   "mapping": seq.mapping.to_json_dict(),
                   "period": seq.period}
    payload.update(report.to_json_dict())
    _emit(payload, args.format, args.out)
    return 0


def cmd_verify(args):
    # only verify runs extfield, so the other commands never compile it
    from .extfield import build_extension, verify_case_table
    mapping = Mapping.from_text(args.map)
    constants = build_system_constants(args.p, args.q, args.m, args.n,
                                       cap=args.cap)
    context = build_extension(constants.half_period)
    system = build_system(args.p, args.q, args.m, args.n, cap=args.cap,
                          constants=constants)
    chars = system.char_sums
    # the spectrum and LC checks share one sequence
    seq = build_sequence(system, mapping)
    case_report = verify_case_table(system, context, mapping, char_sums=chars,
                                    seq=seq)
    lc_report = verify_theorem(system, mapping, strict=True, seq=seq)
    payload = {
        "p": args.p, "q": args.q, "m": args.m, "n": args.n,
        "mapping": mapping.to_json_dict(),
        "partition_ok": True,
        "structural_violations": 0,
        "residue_violations": 0,
        "char_sums": chars.to_json_dict(),
        "case_table": case_report.to_json_dict(),
        "linear_complexity": lc_report.to_json_dict(),
    }
    _emit(payload, args.format, args.out)
    return 0


def _sweep_fields(system, mapping, degenerate):
    """The measured fields of one sweep row, by one bucket_lc walk on both
    paths, after build_sequence's gate. analyze_degenerate raises
    TheoremViolation below its floor, so bound_ok is always true."""
    period = 2 * system.half_period
    if not degenerate:
        build_sequence(system, mapping)
        lc = bucket_lc(system, mapping)
        return {"period": period, "lc": lc, "theorem_holds": lc == period}
    report = analyze_degenerate(system, mapping)
    return {"period": period, "lc": report.lc,
            "lower_bound": report.lower_bound, "bound_ok": True,
            "theorem_holds": report.lc == period,
            "violations": list(report.violations)}


def cmd_sweep(args):
    """One row per grid system and mapping; exit with the largest row code.

    A row is 0 when it holds; 1 when plain LC falls short of the period or
    a violation, a cap or running out of memory ends it (such as
    TheoremViolation below the --degenerate floor, or MethodDisagreement
    when the bucket basis and the closed form differ); 2 on InvalidParams or
    InvalidMapping. A row that ends in an error carries it and the sweep
    goes on. A system is built at its first row; a build that fails is
    retried at each row.
    """
    base = Mapping.from_text(args.map)
    rows, code = [], 0
    for p, q, m, n in _parse_grid(args.pairs, args.exponents):
        forbidden = ({e for e, _ in forbidden_e(p, base) if e}
                     if args.degenerate else ())
        # empty only when a, b, c, d repeat: one base row, refused by the gate
        mappings = [replace(base, e=e) for e in sorted(forbidden)] or [base]
        system = None
        for mapping in mappings:
            row = {"p": p, "q": q, "m": m, "n": n,
                   "mapping": ",".join(str(v) for v in mapping.as_tuple())}
            try:
                system = system or build_system(p, q, m, n, cap=args.cap)
                row.update(_sweep_fields(system, mapping, args.degenerate))
                row_code = 0 if args.degenerate or row["theorem_holds"] else 1
            except (CycloseqError, MemoryError) as exc:
                row["error"] = (f"{type(exc).__name__}: "
                                f"{str(exc) or 'out of memory'}")
                invalid = isinstance(exc, (InvalidParams, InvalidMapping))
                row_code = 2 if invalid else 1
            rows.append(row)
            code = max(code, row_code)
    _emit(rows, args.format, args.out)
    return code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cycloseq",
        description="Quaternary generalized cyclotomic sequences: "
                    "generation, linear complexity, verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)
    degenerate_help = "allow mappings violating the mod-8 constraint"

    def add_params(sp, required=True):
        sp.add_argument("--p", type=int, required=required)
        sp.add_argument("--q", type=int, required=required)
        sp.add_argument("--m", type=int, default=1)
        sp.add_argument("--n", type=int, default=1)
        sp.add_argument("--map", default=DEFAULT_MAP,
                        help="mapping digits a,b,c,d,e (default %(default)s)")
        sp.add_argument("--cap", type=int, default=DEFAULT_PARAM_CAP,
                        help=CAP_HELP)

    gen = sub.add_parser("generate", help="write a sequence digit file")
    add_params(gen)
    gen.add_argument("--out", default=None)
    gen.add_argument("--degenerate", action="store_true", help=degenerate_help)
    gen.set_defaults(func=cmd_generate)

    ana = sub.add_parser("analyze", help="measure linear complexity")
    add_params(ana, required=False)
    ana.add_argument("--file", default=None,
                     help="digit file to analyze instead of generating")
    ana.add_argument("--format", choices=("json", "csv", "text"),
                     default="json")
    ana.add_argument("--out", default=None)
    ana.add_argument("--degenerate", action="store_true", help=degenerate_help)
    ana.set_defaults(func=cmd_analyze)

    ver = sub.add_parser("verify", help="run the full verification suite")
    add_params(ver)
    ver.add_argument("--format", choices=("json", "csv", "text"),
                     default="json")
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify)

    sw = sub.add_parser("sweep", help="tabulate LC over a parameter grid")
    sw.add_argument("--pairs", default=DEFAULT_PAIRS,
                    help=f"prime pairs P:Q, comma separated "
                         f"(default {DEFAULT_PAIRS})")
    sw.add_argument("--exponents", default=DEFAULT_EXPONENTS,
                    help=f"exponent pairs M:N, comma separated "
                         f"(default {DEFAULT_EXPONENTS})")
    sw.add_argument("--map", default=DEFAULT_MAP,
                    help="base mapping digits a,b,c,d,e, whose forbidden e "
                         "values --degenerate sweeps (default %(default)s)")
    sw.add_argument("--cap", type=int, default=DEFAULT_PARAM_CAP,
                    help=CAP_HELP)
    sw.add_argument("--degenerate", action="store_true",
                    help="sweep the forbidden e values and check the "
                         "lower bound instead of full complexity")
    sw.add_argument("--format", choices=("json", "csv", "text"),
                    default="json")
    sw.add_argument("--out", default=None)
    sw.set_defaults(func=cmd_sweep)
    return parser


@functools.cache
def _shared_parser():
    """build_parser() once per process, on the first main() call.

    A parser holds a few hundred objects in reference cycles; building one
    per call leaves them for the cyclic collector.
    """
    return build_parser()


def main(argv=None):
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidParams, InvalidMapping, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapExceeded, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except MalformedSequenceFile as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (LemmaViolation, CaseViolation, PartitionViolation,
            TheoremViolation, MethodDisagreement) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
