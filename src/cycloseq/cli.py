"""Command-line surface: generate, analyze, verify, sweep.

Exit codes: 0 success, 1 verification violation or failed sweep row,
2 invalid parameters or mapping (also when a sweep row fails on one), or
an OSError on a file such as an --out path that cannot be written, 3 cap
exceeded, 4 malformed sequence file. The parameter cap (default
2 p^m q^n <= 10^7, from numtheory.DEFAULT_PARAM_CAP) can be overridden by
--cap or the CYCLOSEQ_CAP environment variable; extfield.build_extension
also caps extension-field verification at N <= 5000 and degree d <= 12,
before `verify` builds any class table.

In the verify report, partition_ok: true rests on build_system, which
paints the partition and raises PartitionViolation (exit 1) on any index
left unlabeled or labeled twice.
"""

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import replace

from .analysis import analyze_degenerate, analyze_symbols, verify_theorem
from .cyclotomy import (build_system, check_residue_rules,
                        check_structural_lemmas)
from .errors import (CapExceeded, CaseViolation, CycloseqError,
                     InvalidMapping, InvalidParams, LemmaViolation,
                     MalformedSequenceFile, MethodDisagreement,
                     PartitionViolation, TheoremViolation)
from .extfield import build_extension, verify_case_table, verify_char_sum_tables
from .numtheory import DEFAULT_PARAM_CAP, build_system_constants
from .sequence import (Mapping, build_sequence, degenerate_e_values,
                       parse_ascii_int, read_sequence_file,
                       write_sequence_file)

DEFAULT_PAIRS = "3:5,3:7,5:7,3:11"
DEFAULT_EXPONENTS = "1:1,2:1,1:2"
# a bad grid entry longer than this is echoed cut, with its length
ECHO_CHARS = 40
CAP_HELP = (f"override the period cap 2 p^m q^n <= {DEFAULT_PARAM_CAP} "
            f"(also CYCLOSEQ_CAP)")


def _resolve_cap(args):
    if getattr(args, "cap", None) is not None:
        return args.cap
    env = os.environ.get("CYCLOSEQ_CAP")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InvalidParams(f"CYCLOSEQ_CAP must be an integer, got {env!r}")
    return DEFAULT_PARAM_CAP


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
    if fmt == "json":
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
    cap = _resolve_cap(args)
    mapping = Mapping.from_text(args.map)
    system = build_system(args.p, args.q, args.m, args.n, cap=cap)
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
    cap = _resolve_cap(args)
    mapping = Mapping.from_text(args.map)
    context = build_extension(build_system_constants(
        args.p, args.q, args.m, args.n, cap=cap).half_period)
    system = build_system(args.p, args.q, args.m, args.n, cap=cap)
    violations = check_structural_lemmas(system) + check_residue_rules(system)
    if violations:
        raise violations[0]
    char_report = verify_char_sum_tables(system, context)
    case_report = verify_case_table(system, context, mapping)
    lc_report = verify_theorem(system, mapping, strict=True)
    payload = {
        "p": args.p, "q": args.q, "m": args.m, "n": args.n,
        "mapping": mapping.to_json_dict(),
        "partition_ok": True,
        "structural_violations": 0,
        "residue_violations": 0,
        "char_sums": char_report.to_json_dict(),
        "case_table": case_report.to_json_dict(),
        "linear_complexity": lc_report.to_json_dict(),
    }
    _emit(payload, args.format, args.out)
    return 0


def _sweep_fields(system, mapping, degenerate):
    """The measured fields of one sweep row. analyze_degenerate raises
    TheoremViolation below its floor, so bound_ok is always true."""
    period = 2 * system.half_period
    if not degenerate:
        lc = verify_theorem(system, mapping).lc_gcd
        return {"period": period, "lc": lc, "theorem_holds": lc == period}
    report = analyze_degenerate(system, mapping)
    return {"period": period, "lc": report.lc_gcd,
            "lower_bound": report.lower_bound, "bound_ok": True,
            "theorem_holds": report.lc_gcd == period,
            "violations": list(report.violations)}


def cmd_sweep(args):
    """One row per grid system and mapping; exit with the largest row code.

    A row is 0 when it holds; 1 when plain LC falls short of the period or
    a violation or cap ends it (such as TheoremViolation below the
    --degenerate floor); 2 on InvalidParams or InvalidMapping. A system is
    built at its first row; a build that fails is retried at each row.
    """
    cap = _resolve_cap(args)
    base = Mapping.from_text(args.map)
    rows, code = [], 0
    for p, q, m, n in _parse_grid(args.pairs, args.exponents):
        mappings = ([replace(base, e=e) for e in degenerate_e_values(p, base)
                     if e] if args.degenerate else [base])
        system = None
        for mapping in mappings:
            row = {"p": p, "q": q, "m": m, "n": n,
                   "mapping": ",".join(str(v) for v in mapping.as_tuple())}
            try:
                system = system or build_system(p, q, m, n, cap=cap)
                row.update(_sweep_fields(system, mapping, args.degenerate))
                row_code = 0 if args.degenerate or row["theorem_holds"] else 1
            except CycloseqError as exc:
                row["error"] = f"{type(exc).__name__}: {exc}"
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

    def add_params(sp, required=True):
        sp.add_argument("--p", type=int, required=required)
        sp.add_argument("--q", type=int, required=required)
        sp.add_argument("--m", type=int, default=1)
        sp.add_argument("--n", type=int, default=1)
        sp.add_argument("--map", default="2,3,1,0,1",
                        help="mapping digits a,b,c,d,e (default 2,3,1,0,1)")
        sp.add_argument("--cap", type=int, default=None, help=CAP_HELP)

    gen = sub.add_parser("generate", help="write a sequence digit file")
    add_params(gen)
    gen.add_argument("--out", default=None)
    gen.add_argument("--degenerate", action="store_true",
                     help="allow mappings violating the mod-8 constraint")
    gen.set_defaults(func=cmd_generate)

    ana = sub.add_parser("analyze", help="measure linear complexity")
    add_params(ana, required=False)
    ana.add_argument("--file", default=None,
                     help="digit file to analyze instead of generating")
    ana.add_argument("--format", choices=("json", "csv", "text"),
                     default="json")
    ana.add_argument("--out", default=None)
    ana.add_argument("--degenerate", action="store_true")
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
    sw.add_argument("--map", default="2,3,1,0,1")
    sw.add_argument("--cap", type=int, default=None, help=CAP_HELP)
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
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
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
