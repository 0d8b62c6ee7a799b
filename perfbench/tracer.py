"""Spans around cycloseq's public functions, installed from outside.

The tracer wraps each listed function object and rebinds every name that
refers to it across the loaded cycloseq.* modules, so calls through
`from .x import f`, through `module.f` and through the package namespace
are all recorded. uninstall() puts the original objects back. Spans are
kept in memory: name, start, end, parent span and the exception class the
call ended in, if any.

Counts come from arguments and return values only, so they repeat exactly
between runs of the same inputs.
"""

import importlib
import os
import sys
import time


def _nbytes(*arrays):
    return sum(a.nbytes for a in arrays if hasattr(a, "nbytes"))


def _file_bytes(path):
    sidecar = str(path) + ".json"
    size = os.path.getsize(path)
    return size + (os.path.getsize(sidecar) if os.path.exists(sidecar) else 0)


# (module, function, count fields, counter). A counter maps (args, result)
# to a value per field; it is called only for calls that return.
TARGETS = (
    ("cli", "main", (), None),
    ("numtheory", "build_system_constants", (), None),
    ("cyclotomy", "build_system", (), None),
    ("cyclotomy", "build_partition", (), None),
    ("cyclotomy", "check_structural_lemmas", (), None),
    ("cyclotomy", "check_residue_rules", (), None),
    ("sequence", "build_sequence", (), None),
    ("sequence", "spectrum_profile", (), None),
    ("sequence", "write_sequence_file", ("bytes",),
     lambda args, result: (_file_bytes(args[1]),)),
    ("sequence", "read_sequence_file", ("bytes",),
     lambda args, result: (_file_bytes(args[0]),)),
    ("gf4", "poly_gcd", (), None),
    ("gf4", "poly_divmod", (), None),
    ("analysis", "berlekamp_massey", ("symbols",),
     lambda args, result: (len(args[0]),)),
    ("analysis", "lc_via_gcd", ("symbols",),
     lambda args, result: (len(args[0]),)),
    ("analysis", "analyze_symbols", (), None),
    ("analysis", "analyze_degenerate", (), None),
    ("extfield", "build_extension", ("degree_sum", "table_bytes"),
     lambda args, result: (result.d, _nbytes(result.modulus,
                                             result.beta_powers,
                                             result.exp_table))),
    ("extfield", "verify_char_sum_tables", ("cells",),
     lambda args, result: (result.cells_checked,)),
    ("extfield", "verify_case_table", ("checked",),
     lambda args, result: (result.checked,)),
    ("extfield", "measure_spectrum", ("points",),
     lambda args, result: (len(result),)),
)

NAME, START, END, PARENT, RAISED = range(5)


class Tracer:
    """Records one span per call of each target function."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._rebound = []
        self.reset()

    def _wrap(self, name, func, fields, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        metrics = [f"{name}.{field}" for field in fields]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span[RAISED] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                for metric, value in zip(metrics, counter(args, result)):
                    counts[metric] += value
            return result

        return traced

    def install(self):
        modules = [mod for modname, mod in list(sys.modules.items())
                   if modname == "cycloseq" or modname.startswith("cycloseq.")]
        for modname, funcname, fields, counter in TARGETS:
            home = importlib.import_module(f"cycloseq.{modname}")
            func = getattr(home, funcname)
            wrapper = self._wrap(f"{modname}.{funcname}", func, fields,
                                 counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, attr, wrapper)
                        self._rebound.append((mod, attr, func))

    def uninstall(self):
        for mod, attr, func in reversed(self._rebound):
            setattr(mod, attr, func)
        self._rebound.clear()

    def reset(self):
        """Drop the spans and zero every count."""
        self.spans.clear()
        self.counts.clear()
        for modname, funcname, fields, _ in TARGETS:
            for field in fields:
                self.counts[f"{modname}.{funcname}.{field}"] = 0

    def summary(self):
        """Counts and self times per function since the last reset().

        Adds calls per function, the analyze_degenerate calls that raised
        TheoremViolation, and the share of LC measurements (returned
        analyze_symbols calls) made inside an analyze_degenerate call that
        then raised, i.e. thrown away by the bound check.
        """
        spans = self.spans
        own = self_times(spans)
        counts, times = dict(self.counts), {}
        for modname, funcname, _, _ in TARGETS:
            name = f"{modname}.{funcname}"
            counts[f"{name}.calls"] = 0
            times[f"{name}.self_s"] = 0.0
        for span, t in zip(spans, own):
            counts[f"{span[NAME]}.calls"] += 1
            times[f"{span[NAME]}.self_s"] += t
        counts["analysis.analyze_degenerate.violations"] = sum(
            1 for s in spans if s[NAME] == "analysis.analyze_degenerate"
            and s[RAISED] == "TheoremViolation")
        measured = wasted = 0
        for s in spans:
            if s[NAME] != "analysis.analyze_symbols" or s[RAISED] is not None:
                continue
            measured += 1
            parent = s[PARENT]
            while (parent >= 0 and spans[parent][NAME]
                   != "analysis.analyze_degenerate"):
                parent = spans[parent][PARENT]
            wasted += parent >= 0 and spans[parent][RAISED] is not None
        counts["analysis.wasted_share"] = (wasted / measured if measured
                                           else 0.0)
        return counts, times


def self_times(spans):
    """Per-span duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own
