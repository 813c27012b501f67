"""The library defines no function or class that only the tests reach, and
no module of the library or the tests imports a name it never reads.

Test-only references (the AR translate, almost split sequences, the AR
quiver, the base-quiver Hom builder and a few predicates) live in
``tests/reference.py``.  This guard keeps it that way: starting from every
name the benchmark harness mentions, every module-level statement of the
library and a short list of documented public operations, it follows the
names each reached definition mentions.  Matching is by name, so a dead
definition that shares its name with a live one goes unseen, but a live
definition is never flagged.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "reptilt"
TESTS = ROOT / "tests"
PERFBENCH = ROOT / "perfbench"

# documented module operations that no command reaches
PUBLIC = {"complete_partial_tilting", "is_faithful", "image", "radical",
          "top", "rmodule_to_json"}


def _names(node):
    """Every identifier that ``node`` mentions: names, attributes, and
    string constants spelling a (dotted) identifier."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(p.isidentifier() for p in parts):
                out.update(parts)
    return out


def unreached_definitions():
    """Sorted "module.name" of each top-level def or class of the library
    that no root reaches."""
    defs = {}           # name -> [(module, node)]
    roots = set(PUBLIC)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.stem, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _names(node)
    for path in sorted(PERFBENCH.glob("*.py")):
        roots |= _names(ast.parse(path.read_text()))
    reached = set()
    todo = [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, node in defs[name]:
            todo.extend(n for n in _names(node) if n in defs)
    return sorted("%s.%s" % (mod, name) for name, nodes in defs.items()
                  if name not in reached for mod, _ in nodes)


def test_library_defines_nothing_only_tests_reach():
    assert unreached_definitions() == []


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
