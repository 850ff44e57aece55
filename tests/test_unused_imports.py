"""No module of the library, the tests or the tools imports a name it never
uses.

A name counts as used when the module reads it anywhere (an annotation, a
decorator, a default) or lists it in `__all__`.  An import that a change
leaves behind keeps a dead dependency between modules, and a module that
the command line loads lazily may load another for nothing.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "heckeb").glob("*.py"),
                  *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "tools").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names bound by the import statements of source that nothing in
    it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_the_guard_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == \
        ["os (line 1)", "b (line 2)"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text("utf-8")) == []
