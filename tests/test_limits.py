"""The limits module: the one home of every cap and budget.

Every functools.cache or lru_cache of src/cycloseq memoises a function of
no arguments, holds one entry, or takes its maxsize from a name that
limits assigns. No other module assigns a cap or budget, read here as a
module-level upper-case name bound to an integer constant expression.
limits imports no cycloseq module but errors.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

from cycloseq import cells, cyclotomy, extfield, limits, numtheory

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cycloseq"
MEMOS = {"cache", "lru_cache"}
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*$")
# the values of every cap and budget: none moved when they came here
VALUES = {"DEFAULT_PARAM_CAP": 10**7, "PERIOD_CEILING": 2**31 - 1,
          "VERIFY_N_CAP": 5000, "DEFAULT_DEGREE_CAP": 12, "ECHO_CHARS": 40,
          "HELD_POSITIONS": 2**23, "HELD_FIELDS": 64,
          "_BLOCK_ELEMENTS": 1 << 14, "HELD_TABLES": 2**10}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _int_constant(node):
    # an int literal, or unary and binary operations on int literals
    if isinstance(node, ast.UnaryOp):
        return _int_constant(node.operand)
    if isinstance(node, ast.BinOp):
        return _int_constant(node.left) and _int_constant(node.right)
    return isinstance(node, ast.Constant) and type(node.value) is int


def _caps_and_budgets(path):
    # the upper-case names a module binds at top level to an int constant
    for node in _tree(path).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if _int_constant(node.value):
            yield from (t.id for t in targets if isinstance(t, ast.Name)
                        and CONSTANT.match(t.id))


def _limits_aliases(tree):
    # {local name: limits name} of from .limits import ..., and the local
    # names bound to the module by from . import limits
    names, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "limits":
                names.update((a.asname or a.name, a.name) for a in node.names)
            elif node.module is None:
                modules.update(a.asname or a.name for a in node.names
                               if a.name == "limits")
    return names, modules


def _memos(tree):
    # each def with a functools.cache or lru_cache decorator, with the
    # call that made the decorator, None for the bare form
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                target = call.func if call else dec
                if getattr(target, "attr", getattr(target, "id", "")) in MEMOS:
                    yield node, call


def _maxsize(call):
    # the maxsize expression of an lru_cache(...) call, None where absent
    if call is None:
        return None
    if call.args:
        return call.args[0]
    return next((k.value for k in call.keywords if k.arg == "maxsize"), None)


def test_every_memo_holds_one_entry_or_a_limits_budget():
    budgets = set(_caps_and_budgets(SRC / "limits.py"))
    bounded = []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path)
        names, modules = _limits_aliases(tree)
        memos = list(_memos(tree))
        for func, call in memos:
            a = func.args
            if not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs
                    or a.kwarg):
                continue
            size = _maxsize(call)
            one = isinstance(size, ast.Constant) and size.value == 1
            named = (isinstance(size, ast.Name)
                     and names.get(size.id) in budgets) or (
                isinstance(size, ast.Attribute)
                and isinstance(size.value, ast.Name)
                and size.value.id in modules and size.attr in budgets)
            assert one or named, f"{path.stem}.{func.name}"
            if named:
                bounded.append(f"{path.stem}.{func.name}")
        # no memo is made other than by a decorator the loop above read
        uses = [node for node in ast.walk(tree)
                if getattr(node, "attr", getattr(node, "id", "")) in MEMOS
                and isinstance(node, (ast.Attribute, ast.Name))]
        assert len(uses) == len(memos), path.stem
    assert {"cells._cell_sums", "cyclotomy.partition_labels",
            "cyclotomy.bucket_codes",
            "numtheory.smallest_odd_primitive_root_mod_p2",
            "extfield.build_extension"} <= set(bounded)
    # and each is bound at run time to the value its name holds
    for memo, name in ((cells._cell_sums, "HELD_TABLES"),
                       (cyclotomy.partition_labels, "HELD_TABLES"),
                       (cyclotomy.bucket_codes, "HELD_TABLES"),
                       (numtheory.smallest_odd_primitive_root_mod_p2,
                        "HELD_TABLES"),
                       (extfield.build_extension, "HELD_FIELDS"),
                       (extfield.least_irreducible, "DEFAULT_DEGREE_CAP")):
        assert memo.cache_info().maxsize == getattr(limits, name), name


def test_only_limits_assigns_a_cap_or_budget():
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "limits":
            assert not list(_caps_and_budgets(path)), path.stem
    assert list(_caps_and_budgets(SRC / "limits.py")) == list(VALUES)
    assert {name: getattr(limits, name) for name in VALUES} == VALUES


def test_limits_imports_only_errors():
    # by its import statements, and by what importing it alone loads
    for node in ast.walk(_tree(SRC / "limits.py")):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 1 and node.module == "errors", node.module
        assert not isinstance(node, ast.Import)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, cycloseq.limits; print(' '.join("
         "m for m in sys.modules if m.startswith('cycloseq.')))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)}).stdout.split()
    assert set(out) == {"cycloseq.limits", "cycloseq.errors"}


def test_cell_sums_holds_its_budget_and_evicts_the_least_recently_used():
    budget, memo = limits.HELD_TABLES, cells._cell_sums
    primes = [r for r in range(3, 400) if numtheory.is_prime(r)]
    keys = [(p, q, 1, 1) for p in primes for q in primes if p != q]
    keys = keys[:budget + 1]
    assert len(keys) == budget + 1
    memo.cache_clear()
    try:
        for key in keys[:budget]:
            memo(*key)
        # the first key read again, then one past the budget: the second,
        # now the least recently used, goes
        memo(*keys[0])
        memo(*keys[-1])
        info = memo.cache_info()
        assert info.currsize == info.maxsize == budget
        assert (info.hits, info.misses) == (1, budget + 1)
        memo(*keys[0])
        assert memo.cache_info().hits == 2
        memo(*keys[1])
        assert memo.cache_info().misses == budget + 2
        assert memo.cache_info().currsize == budget
    finally:
        memo.cache_clear()
