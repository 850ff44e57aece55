"""Dominance orders on partitions and bipartitions, with Hasse diagrams.

The order on bipartitions of index r is pulled back through the inverse
2-quotient map: a is below b iff the preimage partitions (with 2-core the
r-staircase) are dominance-comparable.  For r at least n-1 all these orders
agree with the classical dominance order on bipartitions, which is also
implemented directly so the two can be tested against each other.

dominance_r is the pairwise definition.  A sweep over Bip(n) reads ⊴_r from
order_table(n, r), below-bitsets from one q_r^{-1} per shape, or sorts by
order_key(b, r), the parts of q_r^{-1}(b): p ◁ q implies p <_lex q, so the
ascending sort is a linear extension of ⊴_r.
"""

from __future__ import annotations

import functools
import json
from itertools import accumulate, zip_longest
from operator import le, or_

from . import Value, bits, check_bound, resolve_r
from .combinat import (Bipartition, Partition, enumerate_bipartitions,
                       format_bipartition, q_r_inverse)
from .errors import SizeMismatch

HASSE_BOUND = 10


def dominance_partitions(p: Partition, q: Partition) -> bool:
    """p dominated by q: every prefix sum of p is at most that of q."""
    if p.size != q.size:
        raise SizeMismatch(f"|{p}| = {p.size} != {q.size} = |{q}|")
    return all(x <= y for x, y in zip_longest(
        accumulate(p.parts), accumulate(q.parts), fillvalue=p.size))


def dominance_r(a: Bipartition, b: Bipartition, r) -> bool:
    """The order on bipartitions induced by q_r^{-1} (r may be INFINITY)."""
    if a.size != b.size:
        raise SizeMismatch(f"|{a}| = {a.size} != {b.size} = |{b}|")
    rr = resolve_r(r, a.size)
    return dominance_partitions(q_r_inverse(a, rr), q_r_inverse(b, rr))


def order_key(b: Bipartition, r) -> tuple[int, ...]:
    """The parts of q_r^{-1}(b), r possibly INFINITY.  Ascending in this key
    is a linear extension of ⊴_r.  Proof: let p ◁ q.  As p != q and no
    part is 0, their parts differ at some first index i; the prefix sums
    before i agree and p ⊴ q bounds the one through i, so p_i < q_i."""
    return q_r_inverse(b, resolve_r(r, b.size)).parts


def order_table(n: int, r) -> tuple[dict[Bipartition, int], tuple[int, ...]]:
    """⊴_r on Bip(n) as (index, below): index numbers Bip(n) in
    enumerate_bipartitions order, and bit j of below[i] is set iff j ⊴_r i
    (so i too).  r = INFINITY gives the very table of r = n - 1."""
    return _order_table(n, resolve_r(r, n))


@functools.lru_cache(maxsize=32)
def _order_table(n: int, r: int):
    """Row i holds each j whose prefix sums of q_r^{-1} are at most those
    of i, as in dominance_partitions.  Zero parts pad every image to one
    length: they only repeat the total, which all images share."""
    shapes = enumerate_bipartitions(n)
    keys = [order_key(b, r) for b in shapes]
    width = max(map(len, keys))
    sums = [tuple(accumulate(k + (0,) * (width - len(k)))) for k in keys]
    below = tuple(sum(1 << j for j, p in enumerate(sums)
                      if all(map(le, p, q))) for q in sums)
    return {b: i for i, b in enumerate(shapes)}, below


def dominance_inf_explicit(a: Bipartition, b: Bipartition) -> bool:
    """Classical dominance on bipartitions, written out with prefix sums:
    those of the first components, then |first| plus those of the second.

    Kept separate from dominance_r(..., INFINITY) so the two can be checked
    against each other; dominance_r is normative if they ever disagree.
    """
    if a.size != b.size:
        raise SizeMismatch(f"|{a}| = {a.size} != {b.size} = |{b}|")
    width = max(len(p.parts) for x in (a, b) for p in (x.first, x.second))

    def sums(x: Bipartition):
        return accumulate(p.parts[j] if j < len(p.parts) else 0
                          for p in (x.first, x.second) for j in range(width))

    return all(map(le, sums(a), sums(b)))


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
        chain = self._chain()
        if chain is not None:
            return "  <|  ".join(format_bipartition(v) for v in chain)
        return "\n".join(
            f"{format_bipartition(a)} -> {format_bipartition(b)}"
            for a, b in self.edges)

    def _chain(self) -> list[Bipartition] | None:
        """The vertices smallest first when the edges form one path through
        all of them, else None."""
        if len(self.edges) != len(self.vertices) - 1:
            return None
        succ = dict(self.edges)
        chain = [v for v in self.vertices if v not in succ.values()][:1]
        while len(chain) <= len(self.edges) and chain[-1] in succ:
            chain.append(succ[chain[-1]])
        return chain[::-1] if len(chain) == len(self.vertices) else None


def hasse(n: int, r, bound: int = HASSE_BOUND) -> HasseDiagram:
    """Hasse diagram of the r-order on Bip(n): the covers of v are its
    strict below-set minus the union of the strict below-sets in it."""
    check_bound(n, bound)
    index, below = order_table(n, r)
    verts = list(index)
    strict = [row ^ 1 << i for i, row in enumerate(below)]
    edges = []
    for v, row in zip(verts, strict):
        lower = functools.reduce(or_, (strict[j] for j in bits(row)), 0)
        # edges leave v in the iteration order of its strict below-set as a
        # set built lowest bit first, the order of every saved diagram
        edges += [(v, w) for w in {verts[j] for j in bits(row)}
                  if not lower >> index[w] & 1]
    return HasseDiagram(verts, edges)
