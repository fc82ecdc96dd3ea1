"""Every name a module of the package exports is one of its attributes, so
an export cannot outlive the function it named; and every exported name has
a caller in the package, so the package exports nothing that only tests
call."""

import ast
import importlib
import os
import pkgutil

import pytest

import uavad

MODULES = ["uavad"] + [m.name for m in pkgutil.iter_modules(uavad.__path__, "uavad.")]

PACKAGE_DIR = os.path.dirname(uavad.__file__)
ROOT = os.path.dirname(os.path.dirname(PACKAGE_DIR))

# Exports that nothing in the package calls, each with the file outside it
# that uses it and the text there: the benchmark's calls, and the README's
# way to author a world file for --world.
USED_OUTSIDE = {
    "detect.detect": ("perfbench/workloads.py", "detect.detect(self.checkpoint, g, gps"),
    "world.audit_scene": ("perfbench/workloads.py", "world.audit_scene(wp, g)"),
    "world.sample_scene": ("perfbench/workloads.py", "world.sample_scene(w, wi, rng)"),
    "world.save_world": ("README.md", "`uavad.world.save_world`"),
}


def test_the_package_modules_are_found():
    assert {"uavad.detect", "uavad.evaluate", "uavad.world"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _references(tree: ast.AST) -> set[str]:
    """The names that ``tree`` reads as a ``Name`` or an ``Attribute``, each
    outside the definition of a function or class of that name."""
    found: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_every_export_has_a_caller():
    referenced: set[str] = set()
    for entry in sorted(os.listdir(PACKAGE_DIR)):
        if entry.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, entry), encoding="utf-8") as f:
                referenced |= _references(ast.parse(f.read()))
    uncalled = {
        f"{name.rpartition('.')[2]}.{n}"
        for name in MODULES
        for n in getattr(importlib.import_module(name), "__all__", ())
        if n not in referenced
    }
    assert sorted(uncalled - USED_OUTSIDE.keys()) == []
    # An allowed name that the package now calls leaves the list.
    assert sorted(USED_OUTSIDE.keys() - uncalled) == []


@pytest.mark.parametrize("name", sorted(USED_OUTSIDE))
def test_an_export_used_outside_the_package_is_used_there(name):
    path, text = USED_OUTSIDE[name]
    with open(os.path.join(ROOT, path), encoding="utf-8") as f:
        assert text in f.read()
