"""Every function, class, method and dataclass field of src/cycloseq has
a reader.

Each top-level function and class of src/cycloseq, and each method of
those classes, must be read by some line of src or of perfbench/*.py, or
be named by a perfbench string, as the tracer's TARGETS name the functions
it wraps. Tests and demos do not count: code that only its own test or a
demo reads belongs in that test or demo. Dunder methods are called by the
language, not by name, and are skipped. NamedTuple fields are not
checked: labels are compared by value, so every == reads them.

A top-level function or class of module m is read only through m: as a
bare name in m itself, as a name imported from m (from .m import f,
from cycloseq.m import f), or as an attribute of a name bound to m
(from . import m, from cycloseq import m, import cycloseq.m, any of them
with as), so that a read of another module's f, or of an attribute f of
anything else, does not count.

A method is read by a Name or an Attribute in load context with its
name. One whose name is also a method of dict, list or set (get, clear,
copy, ...) is read only as self.<name> inside its class, or as <X>.<name>
where X is bound at module level of src to an instance of that class
(HELD = _HeldSystems(...) makes HELD.get a read), so that
self.systems.clear() reads no clear method of its own. Each field of a
dataclass must be read as an attribute by such a line, unless its class
serializes itself with asdict, which reads every field.

What the check cannot see: methods and fields are matched by short name
alone, so a dead method or field that shares its short name with any
attribute read anywhere (a method named pow, a field named p or d, say)
passes.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "cycloseq").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
COLLECTION_METHODS = {name for kind in (dict, list, set) for name in dir(kind)
                      if not name.startswith("_")}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _definitions(tree):
    # each top-level function and class, then the methods of the class,
    # with the class they belong to
    for node in tree.body:
        if isinstance(node, DEFS):
            yield None, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((node.name, item.name) for item in node.body
                        if isinstance(item, DEFS[:2]))


def _reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            yield node.attr


def _source_module(node):
    # the src module stem an ImportFrom reads from, "" for the package
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and (
            node.module + ".").startswith("cycloseq."):
        return node.module[len("cycloseq."):]
    return None


def _dotted(node):
    # "a.b.c" for a chain of attribute reads on a name, else None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def _qualified_reads(tree, stem=None):
    # (m, name) for each read of a top-level name of src module m: a bare
    # name when m is this tree's own module (stem), a from-import from m,
    # or an attribute of a name bound to m
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _source_module(node)
            if source is None:
                continue
            for alias in node.names:
                if source:
                    yield source, alias.name
                else:
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("cycloseq."):
                    module = alias.name[len("cycloseq."):]
                    modules[alias.asname or alias.name] = module
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if stem:
                yield stem, node.id
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)
              and _dotted(node.value) in modules):
            yield modules[_dotted(node.value)], node.attr


def _instances(tree):
    # (X, C) for each module-level X = C(...)
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)):
            yield node.targets[0].id, node.value.func.id


def _method_reads(tree, owner):
    # (C, name) for self.<name> inside class C, and for <X>.<name> where
    # owner maps X to C; X may itself be read as an attribute (module.X)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield from ((node.name, sub.attr) for sub in ast.walk(node)
                        if isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Load)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self")
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            base = getattr(node.value, "id", getattr(node.value, "attr", None))
            if base in owner:
                yield owner[base], node.attr


def _strings(tree):
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_src_definition_is_read_outside_the_tests():
    src, bench = [_tree(p) for p in SRC], [_tree(p) for p in BENCH]
    read = {name for tree in src + bench for name in _reads(tree)}
    qualified = {pair for path, tree in zip(SRC, src)
                 for pair in _qualified_reads(tree, path.stem)}
    qualified |= {pair for tree in bench for pair in _qualified_reads(tree)}
    owner = dict(pair for tree in src for pair in _instances(tree))
    methods_read = {pair for tree in src + bench
                    for pair in _method_reads(tree, owner)}
    named = set().union(*map(_strings, bench))
    unread = [f"{path.stem}.{name}"
              for path, tree in zip(SRC, src)
              for cls, name in _definitions(tree)
              if not (name.startswith("__") and name.endswith("__"))
              and name not in named
              and ((path.stem, name) not in qualified if not cls
                   else (cls, name) not in methods_read
                   if name in COLLECTION_METHODS
                   else name not in read)]
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
