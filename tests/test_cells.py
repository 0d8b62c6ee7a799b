"""The cells module: its layering and its map of Z_N."""

import ast
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import benchmark_systems
from cycloseq import analysis, cells, cyclotomy, extfield, sequence

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cycloseq"
# what the cells module owns: the enumeration, the map of Z_N, the Legendre
# sides, the periods and the closed form, and the loss rule with the
# mapping's bucket symbols it reads
MOVED = ("_family_indices", "cells", "cell_index", "_cell_index",
         "_qr_sides", "eta_pair", "cell_char_sums", "_cell_sums",
         "_bucket_symbols", "_PAIR_MUL", "_LOSS", "_cells_lc", "predict_lc")
ALLOWED = {"gf4", "numtheory", "errors", "limits"}


def _top_level_names(path):
    # the names a module binds at top level by def, class or assignment
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
    return names


def test_cells_imports_only_gf4_numtheory_and_errors():
    # by its import statements, and by what importing it alone loads
    imported = set()
    for node in ast.walk(ast.parse((SRC / "cells.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.update([node.module] if node.module
                            else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (
                node.module or "").startswith("cycloseq"):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names
                            if a.name.startswith("cycloseq"))
    assert imported <= ALLOWED, imported
    out = subprocess.run(
        [sys.executable, "-c", "import sys, cycloseq.cells; print(' '.join("
         "m for m in sys.modules if m.startswith('cycloseq.')))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)}).stdout.split()
    assert set(out) <= {f"cycloseq.{name}" for name in ALLOWED | {"cells"}}


def test_the_moved_names_are_defined_only_in_cells():
    assert set(MOVED) - {"_cell_index"} <= _top_level_names(SRC / "cells.py")
    for name in ("cyclotomy", "analysis", "extfield", "sequence"):
        assert not _top_level_names(SRC / f"{name}.py") & set(MOVED), name
    # a module that reads a moved name holds cells' own object
    for module in (cyclotomy, analysis, extfield, sequence):
        for name in MOVED:
            if hasattr(module, name):
                assert getattr(module, name) is getattr(cells, name), (
                    module.__name__, name)


def _reference_index(p, q, m, n):
    # cells' position of each k's cell, in int64: valuations by %, the
    # Legendre bits by Euler's criterion
    N = p**m * q**n
    k = np.arange(N, dtype=np.int64)
    a = sum((k % p**t == 0).astype(np.int64) for t in range(1, m + 1))
    b = sum((k % q**t == 0).astype(np.int64) for t in range(1, n + 1))
    unit = k // (p**a * q**b)
    lp, lq = ((v < top) & (np.array([pow(x, r // 2, r) for x in range(r)])
                           [unit % r] != 1)
              for v, r, top in ((a, p, m), (b, q, n)))
    code = np.full((m + 1, n + 1, 2, 2), -1, dtype=np.int64)
    for at, (key, _) in enumerate(cells.cells(p, q, m, n)):
        code[key] = at
    out = code[a, b, lp.astype(np.int64), lq.astype(np.int64)]
    assert out.dtype == np.int64 and out.min() >= 0
    return out


def test_cell_index_holds_a_byte_per_k_at_49_cells():
    index = cells.cell_index(7, 11, 3, 3)
    assert len(list(cells.cells(7, 11, 3, 3))) == 49
    assert index.dtype == np.uint8 and index.nbytes == 456533
    assert not index.flags.writeable
    assert np.array_equal(index, _reference_index(7, 11, 3, 3))


def test_cell_index_peaks_under_8_mb_at_49_cells():
    # uint8 valuations and an int32 unit part: 6.4 MB, about 14 bytes per
    # k of N = 456 533, where int64 arrays peaked at 18.3 MB
    tracemalloc.start()
    try:
        index = cells.cell_index.__wrapped__(7, 11, 3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 10**6
    assert np.array_equal(index, _reference_index(7, 11, 3, 3))


@pytest.mark.parametrize("params", benchmark_systems(), ids=str)
def test_cell_index_equals_an_int64_reference(params):
    index = cells.cell_index(*params)
    count = len(list(cells.cells(*params)))
    assert index.dtype == np.min_scalar_type(count)
    assert np.array_equal(index, _reference_index(*params))
