"""Kashiwara crystal of the level-2 Fock space.

The crystal operators act on bipartitions through the signature rule: list
the addable and removable i-nodes in increasing node order, cancel
removable-then-addable pairs, and act at the surviving extremes.  The
connected component of the empty bipartition gives the highest-weight
crystal; its vertices of a given rank are the Uglov bipartitions.

A closed-form membership test (cylindrical shape plus a forbidden residue
pattern) is kept alongside as an independent oracle; the graph walk is
normative whenever the two could disagree.
"""

from __future__ import annotations

import functools
import json

from . import Value, check_e, check_n
from .combinat import Bipartition, Partition, format_bipartition
from .errors import ChargeOutOfRange
from .fock import (Charge, Node, addable_nodes, removable_nodes, residue,
                   node_key, _check_residue, _with_node, _without_node)


def signature_word(bip: Bipartition, s: Charge, e: int, i: int) \
        -> list[tuple[str, Node]]:
    """Addable/removable i-nodes in increasing order, tagged 'A' or 'R',
    after cancelling each removable immediately left of an addable."""
    _check_residue(i, e)
    tagged = [("A", g) for g in addable_nodes(bip) if residue(g, s, e) == i]
    tagged += [("R", g) for g in removable_nodes(bip) if residue(g, s, e) == i]
    tagged.sort(key=lambda t: node_key(t[1], s))
    reduced: list[tuple[str, Node]] = []
    for t in tagged:
        if reduced and reduced[-1][0] == "R" and t[0] == "A":
            reduced.pop()
        else:
            reduced.append(t)
    return reduced


def crystal_f(bip: Bipartition, s: Charge, e: int, i: int) -> Bipartition | None:
    """Add a box at the rightmost surviving addable i-node, if any."""
    word = signature_word(bip, s, e, i)
    adds = [g for tag, g in word if tag == "A"]
    if not adds:
        return None
    return _with_node(bip, adds[-1])


def crystal_e(bip: Bipartition, s: Charge, e: int, i: int) -> Bipartition | None:
    """Remove the box at the leftmost surviving removable i-node, if any."""
    word = signature_word(bip, s, e, i)
    rems = [g for tag, g in word if tag == "R"]
    if not rems:
        return None
    return _without_node(bip, rems[0])


def epsilon(bip: Bipartition, s: Charge, e: int, i: int) -> int:
    return sum(1 for tag, _ in signature_word(bip, s, e, i) if tag == "R")


class CrystalGraph(Value):
    """Connected component of the empty bipartition, truncated at rank nmax.

    Edges are (source, residue, target) with |target| = |source| + 1.
    """

    _fields = ("s", "e", "nmax", "vertices", "edges")

    def __init__(self, s: Charge, e: int, nmax: int,
                 vertices: list[Bipartition],
                 edges: list[tuple[Bipartition, int, Bipartition]]
                 | None = None):
        self.s = s
        self.e = e
        self.nmax = nmax
        self.vertices = vertices
        self.edges = [] if edges is None else edges

    def rank(self, n: int) -> list[Bipartition]:
        return [v for v in self.vertices if v.size == n]

    def to_json(self) -> str:
        return json.dumps({
            "schema": "1",
            "charge": list(self.s),
            "e": self.e,
            "nmax": self.nmax,
            "vertices": [format_bipartition(v) for v in self.vertices],
            "edges": [[format_bipartition(a), i, format_bipartition(b)]
                      for a, i, b in self.edges],
        }, ensure_ascii=False, indent=2)

    def to_dot(self) -> str:
        lines = ["digraph crystal {"]
        for v in self.vertices:
            lines.append(f'  "{format_bipartition(v)}";')
        for a, i, b in self.edges:
            lines.append(f'  "{format_bipartition(a)}" -> '
                         f'"{format_bipartition(b)}" [label="{i}"];')
        lines.append("}")
        return "\n".join(lines)

    def to_text(self) -> str:
        return "\n".join(
            f"{format_bipartition(a)} --{i}--> {format_bipartition(b)}"
            for a, i, b in self.edges)


@functools.lru_cache(maxsize=None)
def crystal_graph(s: Charge, e: int, nmax: int) -> CrystalGraph:
    """BFS from the empty bipartition with the arrows f_i, 0 <= i < e."""
    check_e(e)
    check_n(nmax)
    empty = Bipartition(Partition(()), Partition(()))
    vertices = [empty]
    seen = {empty}
    edges = []
    frontier = [empty]
    for _ in range(nmax):
        nxt = []
        for v in frontier:
            for i in range(e):
                w = crystal_f(v, s, e, i)
                if w is None:
                    continue
                edges.append((v, i, w))
                if w not in seen:
                    seen.add(w)
                    vertices.append(w)
                    nxt.append(w)
        frontier = nxt
    key = lambda b: (b.size, b.first.parts, b.second.parts)
    vertices.sort(key=key)
    edges.sort(key=lambda t: (key(t[0]), t[1]))
    return CrystalGraph(tuple(s), e, nmax, vertices, edges)


def uglov_bipartitions(n: int, s: Charge, e: int) -> list[Bipartition]:
    """Rank-n vertices of the highest-weight crystal of F(s)."""
    return crystal_graph(tuple(s), e, n).rank(n)


def flotw_oracle(bip: Bipartition, s: Charge, e: int) -> bool:
    """Closed-form membership test for the highest-weight crystal.

    Only defined for charges with 0 <= s_1 - s_0 < e; the bipartition must
    be cylindrical for the charge and no row length may realize every
    residue at its row ends.
    """
    d = s[1] - s[0]
    if not (0 <= d < e):
        raise ChargeOutOfRange(
            f"oracle needs 0 <= s1 - s0 < e, got s = {s}, e = {e}")
    lam0, lam1 = bip.first, bip.second
    rows = max(len(lam0.parts), len(lam1.parts)) + e
    for i in range(1, rows + 1):
        if lam0.part(i) < lam1.part(i + d):
            return False
        if lam1.part(i) < lam0.part(i + e - d):
            return False
    lengths = set(lam0.parts) | set(lam1.parts)
    for k in lengths:
        ends = set()
        for c, lam in ((0, lam0), (1, lam1)):
            for r, part in enumerate(lam.parts, start=1):
                if part == k:
                    ends.add(residue((r, k, c), s, e))
        if len(ends) == e:
            return False
    return True
