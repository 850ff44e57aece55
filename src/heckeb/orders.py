"""Dominance orders on partitions and bipartitions, with Hasse diagrams.

The order on bipartitions of index r is pulled back through the inverse
2-quotient map: a is below b iff the preimage partitions (with 2-core the
r-staircase) are dominance-comparable.  For r at least n-1 all these orders
agree with the classical dominance order on bipartitions, which is also
implemented directly so the two can be tested against each other.
"""

from __future__ import annotations

import json

from . import Value, check_bound, resolve_r
from .combinat import (Bipartition, Partition, enumerate_bipartitions,
                       format_bipartition, q_r_inverse)
from .errors import SizeMismatch

HASSE_BOUND = 8


def dominance_partitions(p: Partition, q: Partition) -> bool:
    """p dominated by q: every prefix sum of p is at most that of q."""
    if p.size != q.size:
        raise SizeMismatch(f"|{p}| = {p.size} != {q.size} = |{q}|")
    sp = sq = 0
    for i in range(1, max(len(p.parts), len(q.parts)) + 1):
        sp += p.part(i)
        sq += q.part(i)
        if sp > sq:
            return False
    return True


def dominance_r(a: Bipartition, b: Bipartition, r) -> bool:
    """The order on bipartitions induced by q_r^{-1} (r may be INFINITY)."""
    if a.size != b.size:
        raise SizeMismatch(f"|{a}| = {a.size} != {b.size} = |{b}|")
    rr = resolve_r(r, a.size)
    return dominance_partitions(q_r_inverse(a, rr), q_r_inverse(b, rr))


def dominance_inf_explicit(a: Bipartition, b: Bipartition) -> bool:
    """Classical dominance on bipartitions, written out with prefix sums.

    Kept separate from dominance_r(..., INFINITY) so the two can be checked
    against each other; dominance_r is normative if they ever disagree.
    """
    if a.size != b.size:
        raise SizeMismatch(f"|{a}| = {a.size} != {b.size} = |{b}|")
    jmax = max(len(a.first.parts), len(b.first.parts),
               len(a.second.parts), len(b.second.parts))
    sa = sb = 0
    for j in range(1, jmax + 1):
        sa += a.first.part(j)
        sb += b.first.part(j)
        if sa > sb:
            return False
    sa, sb = a.first.size, b.first.size
    for j in range(1, jmax + 1):
        sa += a.second.part(j)
        sb += b.second.part(j)
        if sa > sb:
            return False
    return True


class HasseDiagram(Value):
    """Covering relations of an order on Bip(n); edges run larger -> smaller
    as in the arrow convention of the source diagrams."""

    _fields = ("vertices", "edges")

    def __init__(self, vertices: list[Bipartition],
                 edges: list[tuple[Bipartition, Bipartition]] | None = None):
        self.vertices = vertices
        self.edges = [] if edges is None else edges

    def to_json(self) -> str:
        return json.dumps({
            "schema": "1",
            "vertices": [format_bipartition(v) for v in self.vertices],
            "edges": [[format_bipartition(a), format_bipartition(b)]
                      for a, b in self.edges],
        }, ensure_ascii=False, indent=2)

    def to_dot(self) -> str:
        lines = ["digraph hasse {"]
        for v in self.vertices:
            lines.append(f'  "{format_bipartition(v)}";')
        for a, b in self.edges:
            lines.append(
                f'  "{format_bipartition(a)}" -> "{format_bipartition(b)}";')
        lines.append("}")
        return "\n".join(lines)

    def to_text(self) -> str:
        """Chain notation when the order is total, else an edge list."""
        if self._chain() is not None:
            return "  <|  ".join(format_bipartition(v) for v in self._chain())
        return "\n".join(
            f"{format_bipartition(a)} -> {format_bipartition(b)}"
            for a, b in self.edges)

    def _chain(self) -> list[Bipartition] | None:
        if len(self.edges) != len(self.vertices) - 1:
            return None
        succ = dict(self.edges)
        sources = set(a for a, _ in self.edges) - set(b for _, b in self.edges)
        if len(self.vertices) == 1:
            return list(self.vertices)
        if len(sources) != 1:
            return None
        chain = [sources.pop()]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        if len(chain) != len(self.vertices):
            return None
        return list(reversed(chain))  # smallest first, as printed in chains


def hasse(n: int, r, bound: int = HASSE_BOUND) -> HasseDiagram:
    """Hasse diagram of the r-order on Bip(n)."""
    check_bound(n, bound)
    verts = list(enumerate_bipartitions(n))
    rr = resolve_r(r, n)
    pre = {v: q_r_inverse(v, rr) for v in verts}
    below = {
        v: {w for w in verts
            if w != v and dominance_partitions(pre[w], pre[v])}
        for v in verts
    }
    edges = []
    for v in verts:
        for w in below[v]:
            if not any(w in below[u] for u in below[v] if u != w):
                edges.append((v, w))
    return HasseDiagram(verts, edges)
