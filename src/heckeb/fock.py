"""Level-2 Fock space representations of the quantum affine algebra of
type A_{e-1}^{(1)}.

The Fock space attached to a charge s = (s_0, s_1) has standard basis the
set of all bipartitions; the Chevalley generator f_i acts by adding boxes
of residue i, with v-power coefficients read off a total order on boxes (by
content, ties broken towards the second component).  The tests check it
against e_i, which removes boxes, through the commutator [e_i, f_j].

The divided power f_i^{(a)} = f_i^a / [a]! is computed in closed form:

    f_i^{(a)} |lambda> = sum_A v^{N(A)} |lambda + A>,
    N(A) = sum_{g in A} n_g - a(a-1)/2,

over the sets A of a addable i-nodes of lambda, where n_g is the number of
addable minus removable i-nodes of lambda above g.  Adjacent nodes have
different residues, so adding i-nodes changes no other node's being an
addable or removable i-node; each pair in A is counted once too often in
the sum, at its lower node.
"""

from __future__ import annotations

import json
from itertools import combinations

from . import Value, check_e
from .combinat import Bipartition, Partition, format_bipartition
from .errors import BadResidue, IncompatibleCharges, InvalidArgument
from .laurent import VPoly, V_ONE

Charge = tuple[int, int]
Node = tuple[int, int, int]  # (row, col, component), rows/cols 1-based


def content(node: Node, s: Charge) -> int:
    a, b, c = node
    return b - a + s[c]


def residue(node: Node, s: Charge, e: int) -> int:
    return content(node, s) % e


def node_key(node: Node, s: Charge):
    """Sort key for the total order on nodes: increasing content, and the
    second component before the first on equal content."""
    return (content(node, s), -node[2])


def addable_nodes(bip: Bipartition) -> list[Node]:
    out = []
    for c in (0, 1):
        p = bip.component(c)
        for r in range(1, len(p.parts) + 2):
            if r == 1 or p.part(r - 1) > p.part(r):
                out.append((r, p.part(r) + 1, c))
    return out


def removable_nodes(bip: Bipartition) -> list[Node]:
    out = []
    for c in (0, 1):
        p = bip.component(c)
        for r in range(1, len(p.parts) + 1):
            if p.part(r) > p.part(r + 1):
                out.append((r, p.part(r), c))
    return out


def i_nodes(bip: Bipartition, s: Charge, e: int, i: int) \
        -> list[tuple[str, Node]]:
    """The addable and removable i-nodes of bip, tagged 'A' or 'R', in
    increasing node order."""
    _check_residue(i, e)
    tagged = [("A", g) for g in addable_nodes(bip) if residue(g, s, e) == i]
    tagged += [("R", g) for g in removable_nodes(bip) if residue(g, s, e) == i]
    tagged.sort(key=lambda t: node_key(t[1], s))
    return tagged


def _with_node(bip: Bipartition, node: Node) -> Bipartition:
    r, _, c = node
    return bip.with_component(c, bip.component(c).with_boxes((r,)))


def _without_node(bip: Bipartition, node: Node) -> Bipartition:
    r, _, c = node
    return bip.with_component(c, bip.component(c).without_box(r))


class FockVector(Value):
    """Sparse vector in the level-2 Fock space F(s) over Z[v, v^{-1}]."""

    __slots__ = ("s", "e", "terms")
    _fields = ("s", "e", "terms")

    def __init__(self, s: Charge, e: int,
                 terms: dict[Bipartition, VPoly] | None = None):
        self.s = tuple(s)
        self.e = check_e(e)
        self.terms = {b: c for b, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def basis(cls, bip: Bipartition, s: Charge, e: int) -> "FockVector":
        return cls(s, e, {bip: V_ONE})

    @classmethod
    def vacuum(cls, s: Charge, e: int) -> "FockVector":
        return cls.basis(Bipartition(Partition(()), Partition(())), s, e)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, bip: Bipartition) -> VPoly:
        return self.terms.get(bip, VPoly())

    def _check(self, other: "FockVector"):
        if self.s != other.s or self.e != other.e:
            raise IncompatibleCharges(
                f"({self.s}, e={self.e}) vs ({other.s}, e={other.e})")

    def __add__(self, other: "FockVector") -> "FockVector":
        self._check(other)
        out = dict(self.terms)
        for b, c in other.terms.items():
            out[b] = out.get(b, VPoly()) + c
        return FockVector(self.s, self.e, out)

    def __neg__(self) -> "FockVector":
        return FockVector(self.s, self.e,
                          {b: -c for b, c in self.terms.items()})

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-other)

    def scale(self, c: VPoly) -> "FockVector":
        return FockVector(self.s, self.e,
                          {b: cc * c for b, cc in self.terms.items()})

    def support(self) -> list[Bipartition]:
        return sorted(self.terms)

    def to_text(self) -> str:
        """The terms c*|b> in support order: a c of 1 is left out, a lone
        +-v^k is bare, and any other c is bracketed."""
        bits = []
        for b in self.support():
            cs = str(self.terms[b])
            bare = len(self.terms[b].terms) == 1 and cs.lstrip("-")[:1] == "v"
            prefix = "" if cs == "1" else f"{cs}*" if bare else f"({cs})*"
            bits.append(f"{prefix}|{format_bipartition(b)}>")
        return " + ".join(bits) or "0"

    def to_json(self) -> str:
        return json.dumps({
            "schema": "1",
            "charge": list(self.s),
            "e": self.e,
            "terms": [
                {"bipartition": format_bipartition(b),
                 "coeff": str(self.terms[b])}
                for b in self.support()],
        }, ensure_ascii=False, indent=2)

    __repr__ = to_text
    __str__ = to_text


def f_action(i: int, vec: FockVector) -> FockVector:
    """f_i: add one box of residue i in all ways."""
    return divided_power_f(i, 1, vec)


def divided_power_f(i: int, a: int, vec: FockVector) -> FockVector:
    """f_i^{(a)}, by the closed form of the module docstring."""
    _check_residue(i, vec.e)
    if a < 0:
        raise InvalidArgument(f"divided power a = {a} must be non-negative")
    s, e = vec.s, vec.e
    shift = a * (a - 1) // 2
    out: dict[Bipartition, dict[int, int]] = {}
    for bip, c in vec.terms.items():
        addable, n = [], 0  # (g, n_g), walking down from the highest node
        for tag, g in reversed(i_nodes(bip, s, e, i)):
            if tag == "A":
                addable.append((g, n))
                n += 1
            else:
                n -= 1
        # each component is built once for each set of rows it grows in
        built = {(k, ()): bip.component(k) for k in (0, 1)}
        for subset in combinations(addable, a):
            comps = []
            for k in (0, 1):
                rows = tuple(g[0] for g, _ in subset if g[2] == k)
                if (k, rows) not in built:
                    built[k, rows] = bip.component(k).with_boxes(rows)
                comps.append(built[k, rows])
            d = sum(n_g for _, n_g in subset) - shift
            acc = out.setdefault(Bipartition(*comps), {})
            for exp, x in c.terms.items():
                acc[exp + d] = acc.get(exp + d, 0) + x
    return FockVector(s, e, {b: VPoly(t) for b, t in out.items()})


def _check_residue(i: int, e: int):
    if not (0 <= i < e):
        raise BadResidue(f"residue {i} out of range for e = {e}")


def fock_modules_isomorphic(s1: Charge, s2: Charge, e: int) -> bool:
    """Whether F(s1) and F(s2) carry the same module structure: charges
    congruent componentwise mod e, up to swapping the two components."""
    direct = (s1[0] - s2[0]) % e == 0 and (s1[1] - s2[1]) % e == 0
    swapped = (s1[0] - s2[1]) % e == 0 and (s1[1] - s2[0]) % e == 0
    return direct or swapped
