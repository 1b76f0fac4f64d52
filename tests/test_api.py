"""Every public name in the package has a caller in the program, and
every imported name is read.

The check reads ``src/superberezin/*.py`` and ``bench/*.py`` with ``ast``.
A public top-level function or class (no leading underscore) counts as
called when some other place in those files names it: bare in its own
module or in one that imports it, or as an attribute of its module
(``linalg.rank``).  A public method of a public class counts as called
when some place outside its own body reads an attribute of that name.
Imports, ``__all__`` lists and strings are not references, so
re-exporting a name or listing it in a tracer table gives it no caller.
A name that only tests call either moves into the test that uses it or
goes on ``ALLOWED`` with the reason it stays.
"""

import ast
import functools
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "superberezin"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
MODULES = {path.stem for path in PACKAGE.glob("*.py")}

ALLOWED = {
    # one side of a text format: its reader and writer pair is the textio
    # contract, so each stays with the side the program uses
    "textio.parse_scalar",
    "textio.format_superfunction",
    "textio.format_structure_constants",
    # planned as a check line in the G/H and random-group suites
    "supergroup.check_subgroup",
    # the one-element draw, the 1 x 1 case of the block draw that
    # random_even_supermatrix makes, with which the tests draw elements
    "suites.random_grassmann",
    # the ring API of the public value types: no other public spelling
    # takes a polynomial's derivative, its value at a point or a
    # superfunction's body
    "superdomain.Polynomial.derive",
    "superdomain.Polynomial.evaluate",
    "superdomain.SuperFunction.body_polynomial",
    # the public block constructor, with the per-entry parity check; the
    # program's drawn matrices are built by supermatrix._trusted
    "supermatrix.SuperMatrix.from_blocks",
}


def _public(name):
    return not name.startswith("_")


def _definitions(path, tree):
    """(qualified name, bare name, kind, first line, last line) of each
    public top-level function and class, and of each public method of a
    public class, kind "method" for the methods."""
    module = path.stem
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or not _public(node.name):
            continue
        yield (f"{module}.{node.name}", node.name, "top",
               node.lineno, node.end_lineno)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield (f"{module}.{node.name}.{item.name}", item.name,
                           "method", item.lineno, item.end_lineno)


def _imported(tree):
    """{bound name: (module, name)} of each ``from M import name``; M is
    the last part of the module path, "" for the package itself."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            if module == PACKAGE.name:
                module = ""
            for alias in node.names:
                bound[alias.asname or alias.name] = (module, alias.name)
    return bound


def _references(path, tree):
    """(module, name, kind, line) of each reference: a bare name defined in
    or imported into this file, or an attribute of a package module
    (``linalg.rank``), kind "top"; any attribute read, module None and
    kind "method"."""
    bound = _imported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            module, name = bound.get(node.id, (path.stem, node.id))
            yield module, name, "top", node.lineno
        elif isinstance(node, ast.Attribute):
            yield None, node.attr, "method", node.lineno
            if isinstance(node.value, ast.Name) and node.value.id in MODULES:
                yield node.value.id, node.attr, "top", node.lineno


@functools.cache
def uncalled_public_names():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    places = {}  # (module, name, kind) -> [(file, line)]
    for path, tree in trees.items():
        for module, name, kind, line in _references(path, tree):
            places.setdefault((module, name, kind), []).append((path, line))
    found = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualified, name, kind, first, last in _definitions(path, tree):
            # a bare name imported from the package may be any module's
            modules = (None,) if kind == "method" else (path.stem, "")
            if not any(other != path or not first <= line <= last
                       for module in modules
                       for other, line in places.get((module, name, kind), ())):
                found.append(qualified)
    return frozenset(found)


def test_every_public_name_has_a_caller_in_the_program():
    assert sorted(uncalled_public_names() - ALLOWED) == []


def test_every_allowed_name_is_still_defined_and_uncalled():
    # an allowed name that gained a caller, or left, comes off the list
    assert ALLOWED <= uncalled_public_names()


# the files whose imports must all be read; a package __init__ imports to
# re-export
IMPORTERS = ([path for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"]
             + sorted((ROOT / "tests").glob("*.py")))


def _unused_imports(tree):
    """Names an import binds that the file never reads, except __future__
    imports and the names listed in __all__."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0]
                      for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {element.value for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)
                for element in getattr(node.value, "elts", ())
                if isinstance(element, ast.Constant)}
    return sorted(bound - read - exported)


def test_every_imported_name_is_read():
    unused = {}
    for path in IMPORTERS:
        names = _unused_imports(ast.parse(path.read_text(), str(path)))
        if names:
            unused[path.relative_to(ROOT).as_posix()] = names
    assert unused == {}


def _tracer_class_methods():
    """``CLASS_METHODS`` of ``bench/tracer.py``, read with ``ast``: the
    (layer, class, method, hot) rows whose class-dict binding it wraps."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "CLASS_METHODS"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no CLASS_METHODS")


def test_every_traced_method_is_bound_in_its_own_class():
    # the tracer wraps cls.__dict__[method], so an inherited method, such
    # as _Exact's arithmetic without its alias in the subclass, is lost
    missing = []
    for layer, cls_name, method, _ in _tracer_class_methods():
        cls = getattr(importlib.import_module(f"superberezin.{layer}"), cls_name)
        if method not in vars(cls):
            missing.append(f"{layer}.{cls_name}.{method}")
    assert missing == []
