"""Every public function and method of heckeb is run by the library, a
command or a tool, not by the tests alone.

A definition counts as reached when its name is loaded as an ast.Name, or
read or written as an ast.Attribute, somewhere in src/heckeb or tools/.
An import alias does not count, so an unused import keeps no name alive.
The scan matches bare names, so a local variable or an attribute of the
same name anywhere hides a dead definition: crystal.phi and
Specialization.q0 once escaped it that way.  An oracle that only the tests
run belongs in tests/ (oracles.py, or the one test module that uses it).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heckeb"

# The closed-form FLOTW membership test stays in the library beside the
# crystal walk it checks: the Fock-side claims at larger sizes are to be
# run through it.
ALLOWED = {"crystal.flotw_oracle"}


def _trees(*dirs):
    return {path: ast.parse(path.read_text("utf-8"))
            for d in dirs for path in sorted(d.glob("*.py"))}


def _public(body):
    return [node.name for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


def definitions(trees):
    """Dotted names of the public module-level functions and of the public
    methods of public classes."""
    out = set()
    for path, tree in trees.items():
        module = path.stem
        out.update(f"{module}.{name}" for name in _public(tree.body))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                out.update(f"{module}.{node.name}.{name}"
                           for name in _public(node.body))
    return out


def reached_names(trees):
    out = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def unreached(package, others):
    """The definitions of the package whose names neither it nor the
    other trees reach."""
    reached = reached_names({**package, **others})
    return {name for name in definitions(package)
            if name.rpartition(".")[2] not in reached}


def test_every_public_name_is_reached():
    dead = unreached(_trees(PACKAGE), _trees(ROOT / "tools"))
    assert sorted(dead - ALLOWED) == [], \
        "reached only from tests/: move each into tests/ or delete it"
    assert sorted(ALLOWED - dead) == [], \
        "defined nowhere or reached now: drop it from ALLOWED"


def test_import_alias_does_not_count():
    trees = {Path("m.py"): ast.parse(
        "from .x import f as g\n"
        "import y\n"
        "def h():\n    return y.k\n"
        "def f():\n    pass\n"
        "class C:\n    def k(self):\n        pass\n"
        "    def j(self):\n        pass\n")}
    assert unreached(trees, {}) == {"m.f", "m.h", "m.C.j"}
