"""The library defines no function or class that only the tests reach, and
no module of the library or the tests imports a name it never reads.

Test-only references (the AR translate, almost split sequences, the AR
quiver, the base-quiver Hom builder and a few predicates) live in
``tests/reference.py``.  This guard keeps it that way: starting from every
name the benchmark harness mentions, every module-level statement of the
library and a short list of documented public operations, it follows the
names each reached definition mentions.  A method of a reached class
whose name nothing reached mentions as an attribute or a string is flagged
too: a bare name, such as a local variable, does not reach a method.
Matching is by name, so a dead definition that shares its name with a live
one goes unseen, but a live definition is never flagged.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "reptilt"
TESTS = ROOT / "tests"
PERFBENCH = ROOT / "perfbench"

# documented module operations that no command reaches, and
# Quiver.to_json, the inverse of Quiver.from_json
PUBLIC = {"complete_partial_tilting", "is_faithful", "image", "radical",
          "socle", "top", "rmodule_to_json", "to_json"}


def _names(node):
    """(names, members): the bare names that ``node`` mentions, and the
    attributes and string constants spelling a (dotted) identifier that it
    mentions.  Only a member can reach a method: a local variable that
    shares a method's name calls nothing."""
    names, members = set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            members.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(p.isidentifier() for p in parts):
                members.update(parts)
    return names, members


def _walk():
    """(defs, reached, members): each top-level def or class of the
    library by name, as [(module, node)]; the names of those a root
    reaches, through any name or member; and every member the roots and
    the reached definitions mention."""
    defs = {}
    roots, members = set(PUBLIC), set(PUBLIC)

    def mention(node):
        names, attrs = _names(node)
        members.update(attrs)
        return names | attrs

    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.stem, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= mention(node)
    for path in sorted(PERFBENCH.glob("*.py")):
        roots |= mention(ast.parse(path.read_text()))
    reached = set()
    todo = [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, node in defs[name]:
            todo.extend(n for n in mention(node) if n in defs)
    return defs, reached, members


def unreached_definitions():
    """Sorted "module.name" of each top-level def or class of the library
    that no root reaches."""
    defs, reached, _ = _walk()
    return sorted("%s.%s" % (mod, name) for name, nodes in defs.items()
                  if name not in reached for mod, _ in nodes)


def unmentioned_methods():
    """Sorted "module.Class.method" of each non-dunder method of a reached
    class whose name no root and no reached definition mentions as a
    member: nothing outside the tests can call it."""
    defs, reached, members = _walk()
    return sorted(
        "%s.%s.%s" % (mod, cls.name, node.name)
        for name in reached for mod, cls in defs[name]
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in members)


def test_library_defines_nothing_only_tests_reach():
    assert unreached_definitions() == []


def test_library_classes_have_no_method_only_tests_call():
    assert unmentioned_methods() == []


def unused_imports(paths):
    """Sorted "file:line name" of each name an import binds that its module
    never reads.  ``from __future__`` imports are skipped.  Matching is by
    name over the whole module, so an import read only in another scope
    goes unseen."""
    out = []
    for path in paths:
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        out.append("%s:%d %s" % (path.relative_to(ROOT),
                                                 node.lineno, name))
    return sorted(out)


def test_no_unused_imports():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert unused_imports(paths) == []
