"""The benchmark's tooling against this source tree.

perfbench/tracer.py names the functions it wraps, and
perfbench/make_reference.py records the reference answers through
cycloseq's own calls. Both are read here, never changed: every traced name
must resolve, and stored reference entries must come out again through
make_reference's functions, so a change to src that would break the
benchmark or its regeneration fails here first.
"""

import contextlib
import importlib
import io
import json
import os
import sys

import pytest

from cycloseq import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def bench():
    """(make_reference, tracer, systems), imported from perfbench/."""
    saved = list(sys.path)
    sys.path.insert(0, PERFBENCH)
    try:
        return tuple(importlib.import_module(name) for name in
                     ("make_reference", "tracer", "systems"))
    finally:
        sys.path[:] = saved


def _reference(workload):
    with open(os.path.join(PERFBENCH, "reference", f"{workload}.json")) as fh:
        return json.load(fh)


def test_every_tracer_target_resolves(bench, tmp_path):
    _, tracer, _ = bench
    for modname, funcname, _, _ in tracer.TARGETS:
        module = importlib.import_module(f"cycloseq.{modname}")
        assert callable(getattr(module, funcname, None)), (modname, funcname)
    main = cli.main
    seq = str(tmp_path / "seq.txt")
    traced = tracer.Tracer()
    traced.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes = [cli.main(argv) for argv in (
                ["verify", "--p", "3", "--q", "5"],
                ["generate", "--p", "3", "--q", "7", "--out", seq],
                ["analyze", "--file", seq],
                ["sweep", "--pairs", "3:5", "--exponents", "1:1",
                 "--degenerate"])]
    finally:
        traced.uninstall()
    assert cli.main is main and codes == [0, 0, 0, 0]
    counts, _ = traced.summary()
    for name in ("cli.main", "numtheory.build_system_constants",
                 "cyclotomy.build_system", "sequence.build_sequence",
                 "sequence.write_sequence_file",
                 "sequence.read_sequence_file", "analysis.analyze_symbols",
                 "analysis.analyze_degenerate", "extfield.build_extension",
                 "extfield.verify_case_table", "extfield.measure_spectrum"):
        assert counts[f"{name}.calls"] > 0, name


def test_sweep_reference_entries_regenerate(bench):
    make_reference, _, systems = bench
    stored = _reference("sweep-mappings")["17,3,1,1"]
    system = make_reference.build_system(17, 3, 1, 1)
    assert len(systems.MAPPINGS) == 72
    for mp in systems.MAPPINGS:
        entry = make_reference.lc_entry(system, make_reference.Mapping(*mp))
        assert entry == stored[systems.key(mp)], mp


def test_verify_grid_reference_entry_regenerates(bench):
    # the calls verify_table makes, for one system and one mapping
    mr, _, _ = bench
    stored = _reference("verify-grid")["7,73,1,1"]
    system = mr.build_system(7, 73, 1, 1)
    mr.build_partition(system)
    assert not (mr.check_structural_lemmas(system)
                + mr.check_residue_rules(system))
    context = mr.build_extension(system.half_period)
    chars = mr.verify_char_sum_tables(system, context)
    mapping = mr.Mapping(2, 3, 1, 0, 1)
    assert not mr.validate_mapping(system.constants.p, mapping)
    case = mr.verify_case_table(system, context, mapping)
    lc = mr.verify_theorem(system, mapping, strict=True)
    got = {"N": system.half_period, "d": context.d,
           "k_count": chars.k_count, "cells_checked": chars.cells_checked,
           "checked": case.checked}
    assert got == {"N": 511, "d": 9, "k_count": 510, "cells_checked": 3060,
                   "checked": 511}
    assert got == {key: stored[key] for key in got}
    want = stored["accepted"]["2,3,1,0,1"]
    assert (want["lc"], want["case"]) == (1022, [1, 2, 2, 2])
    assert {"lc": lc.lc_gcd,
            "case": [case.s_at_1, case.value_generic,
                     case.value_p_saturated, case.value_q_saturated],
            "minpoly": mr.poly_digest(lc.minimal_polynomial)} == want
