"""Every function, class, method and dataclass field of src/cycloseq has
a reader.

Each top-level function and class of src/cycloseq, and each method of
those classes, must be read by some line of src or of perfbench/*.py, or
be named by a perfbench string, as the tracer's TARGETS name the functions
it wraps. A read is a Name or an Attribute in load context, or an
imported name. Each field of a dataclass must be read as an attribute by
such a line, unless its class serializes itself with asdict, which reads
every field. Tests and demos do not count: code that only its own test
or a demo reads belongs in that test or demo. Dunder methods are called by
the language, not by name, and are skipped. NamedTuple fields are not
checked: labels are compared by value, so every == reads them.

What the check cannot see: reads are matched by short name alone, so a
dead function, method or field that shares its short name with a live
one, or with any attribute read anywhere (a method named get, pow or
copy, a field named p or d, say), passes.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "cycloseq").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _definitions(tree):
    # each top-level function and class, then the methods of the class
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, DEFS[:2]))


def _reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.rpartition(".")[2] for alias in node.names)


def _strings(tree):
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_src_definition_is_read_outside_the_tests():
    src, bench = [_tree(p) for p in SRC], [_tree(p) for p in BENCH]
    read = {name for tree in src + bench for name in _reads(tree)}
    named = set().union(*map(_strings, bench))
    unread = [f"{path.stem}.{name}"
              for path, tree in zip(SRC, src)
              for name in _definitions(tree)
              if not (name.startswith("__") and name.endswith("__"))
              and name not in read and name not in named]
    assert len(SRC) > 1 and BENCH
    assert unread == []


def _is_dataclass(node):
    return isinstance(node, ast.ClassDef) and any(
        getattr(dec.func if isinstance(dec, ast.Call) else dec, "id",
                None) == "dataclass"
        for dec in node.decorator_list)


def _fields(tree):
    # each field of a dataclass that does not serialize itself with asdict
    for node in tree.body:
        if _is_dataclass(node) and not any(
                isinstance(call, ast.Call)
                and getattr(call.func, "id", None) == "asdict"
                for call in ast.walk(node)):
            yield from (f"{node.name}.{item.target.id}" for item in node.body
                        if isinstance(item, ast.AnnAssign))


def _attribute_reads(tree):
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read_outside_the_tests():
    src = [_tree(p) for p in SRC]
    read = set().union(*map(_attribute_reads, src + [_tree(p) for p in BENCH]))
    fields = [name for tree in src for name in _fields(tree)]
    unread = [name for name in fields if name.rpartition(".")[2] not in read]
    assert len(fields) > 10
    assert unread == []
