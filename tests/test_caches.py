"""Every cache in src/heckeb has a bounded footprint.

Each functools.lru_cache gives an integer maxsize, or UNBOUNDED names its
function with the reason its entries stay few anyway.  The source is read
as an AST, so a cache counts whether or not any test calls it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "heckeb"

_PER_RANK = "one entry per rank a run reaches"
_PER_FOCK_CASE = ("one entry per Fock case (rank, charge, e) a run asks "
                  "for: a command asks for one, and the Theorem 4.1 checks "
                  "for one per (e, d, r) case of their rank")
UNBOUNDED = {
    "canonical.canonical_basis": _PER_FOCK_CASE,
    "crystal.crystal_graph": _PER_FOCK_CASE,
    "combinat.partitions": "one entry per size up to the rank a run reaches",
    "combinat.enumerate_bipartitions": _PER_RANK,
    "cyclo.cyclotomic_polynomial": "one entry per divisor of the orders "
                                   "m = 4e a run specializes at",
    "cyclo._powers": "one table of m rows per order m = 4e a run "
                     "specializes at",
    "domino.group_elements": _PER_RANK,
    "domino.kernel": _PER_RANK,
    "domino._insertion_table": "one entry per (rank, r) a run asks for, "
                               "r cut to min(r, n - 1) before the cache, "
                               "so at most n entries per rank",
    "hecke._bar_t": _PER_RANK + "; only the tests and perfbench reach it "
                                "(ROADMAP item 22)",
}


def _unbounded(decorator) -> bool:
    """Whether a decorator is functools.cache, or an lru_cache with no
    integer maxsize written out."""
    call = decorator if isinstance(decorator, ast.Call) else None
    target = call.func if call else decorator
    name = getattr(target, "attr", getattr(target, "id", None))
    if name != "lru_cache":
        return name == "cache"
    args = [k.value for k in call.keywords if k.arg == "maxsize"] \
        + call.args if call else []
    return not args or type(getattr(args[0], "value", None)) is not int


def unbounded_caches():
    """module.function for every cache in the package without an integer
    maxsize."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and any(map(_unbounded, node.decorator_list)):
                found.add(f"{path.stem}.{node.name}")
    return found


def test_every_unbounded_cache_is_named():
    found = unbounded_caches()
    assert sorted(found - UNBOUNDED.keys()) == [], \
        "give each an integer maxsize, or say in UNBOUNDED why it stays small"
    assert sorted(UNBOUNDED.keys() - found) == [], \
        "bounded now or defined nowhere: drop it from UNBOUNDED"

