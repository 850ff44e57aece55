"""Level-2 Fock space representations of the quantum affine algebra of
type A_{e-1}^{(1)}.

The Fock space attached to a charge s = (s_0, s_1) has standard basis the
set of all bipartitions; the Chevalley generators e_i, f_i act by removing
and adding boxes of residue i, with v-power coefficients read off a total
order on boxes (by content, ties broken towards the second component).
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import Value, check_e
from .combinat import Bipartition, Partition, format_bipartition
from .errors import BadResidue, IncompatibleCharges, InvalidArgument
from .laurent import VPoly, V_ONE, gauss_factorial

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


def _with_node(bip: Bipartition, node: Node) -> Bipartition:
    r, _, c = node
    return bip.with_component(c, bip.component(c).with_box(r))


def _without_node(bip: Bipartition, node: Node) -> Bipartition:
    r, _, c = node
    return bip.with_component(c, bip.component(c).without_box(r))


def weight_ni(bip: Bipartition, s: Charge, e: int, i: int) -> int:
    """N_i = (addable i-nodes) - (removable i-nodes)."""
    add = sum(1 for g in addable_nodes(bip) if residue(g, s, e) == i)
    rem = sum(1 for g in removable_nodes(bip) if residue(g, s, e) == i)
    return add - rem


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
        if not self.terms:
            return "0"
        bits = []
        for b in self.support():
            c = self.terms[b]
            cs = str(c)
            if len(c.terms) > 1 or (cs not in ("1",) and not cs.lstrip("-").startswith(("v",))
                                    and cs != "1"):
                cs = f"({cs})"
            bits.append(f"{cs}*|{format_bipartition(b)}>" if cs != "1"
                        else f"|{format_bipartition(b)}>")
        return " + ".join(bits)

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
    """f_i: add one box of residue i in all ways, with exponent
    (higher addable i-nodes of the source) - (higher removable i-nodes of
    the target)."""
    _check_residue(i, vec.e)
    s, e = vec.s, vec.e
    out: dict[Bipartition, VPoly] = {}
    for bip, c in vec.terms.items():
        add_i = [g for g in addable_nodes(bip) if residue(g, s, e) == i]
        for g in add_i:
            target = _with_node(bip, g)
            d = sum(1 for h in add_i if node_key(h, s) > node_key(g, s)) \
                - sum(1 for h in removable_nodes(target)
                      if residue(h, s, e) == i and node_key(h, s) > node_key(g, s))
            out[target] = out.get(target, VPoly()) + c * VPoly.monomial(d)
    return FockVector(s, e, out)


def e_action(i: int, vec: FockVector) -> FockVector:
    """e_i: remove one box of residue i in all ways, with exponent
    (lower removable i-nodes of the source) - (lower addable i-nodes of
    the target)."""
    _check_residue(i, vec.e)
    s, e = vec.s, vec.e
    out: dict[Bipartition, VPoly] = {}
    for bip, c in vec.terms.items():
        rem_i = [g for g in removable_nodes(bip) if residue(g, s, e) == i]
        for g in rem_i:
            target = _without_node(bip, g)
            d = sum(1 for h in rem_i if node_key(h, s) < node_key(g, s)) \
                - sum(1 for h in addable_nodes(target)
                      if residue(h, s, e) == i and node_key(h, s) < node_key(g, s))
            out[target] = out.get(target, VPoly()) + c * VPoly.monomial(d)
    return FockVector(s, e, out)


def divided_power_f(i: int, a: int, vec: FockVector) -> FockVector:
    """f_i^{(a)} = f_i^a / [a]!; the division is exact on any vector."""
    if a < 0:
        raise InvalidArgument(f"divided power a = {a} must be non-negative")
    out = vec
    for _ in range(a):
        out = f_action(i, out)
    fact = gauss_factorial(a)
    return FockVector(vec.s, vec.e,
                      {b: c.exact_div(fact) for b, c in out.terms.items()})


def _check_residue(i: int, e: int):
    if not (0 <= i < e):
        raise BadResidue(f"residue {i} out of range for e = {e}")


def delta_s(s: Charge, e: int) -> Fraction:
    """Normalization constant of the charge: sum over components of
    (s_j - sbar_j)/e * (s_j + sbar_j - e) / 2 with sbar_j = s_j mod e."""
    total = Fraction(0)
    for sj in s:
        sbar = sj % e
        total += Fraction(sj - sbar, e) * Fraction(sj + sbar - e, 2)
    return total


def fock_modules_isomorphic(s1: Charge, s2: Charge, e: int) -> bool:
    """Whether F(s1) and F(s2) carry the same module structure: charges
    congruent componentwise mod e, up to swapping the two components."""
    direct = (s1[0] - s2[0]) % e == 0 and (s1[1] - s2[1]) % e == 0
    swapped = (s1[0] - s2[1]) % e == 0 and (s1[1] - s2[0]) % e == 0
    return direct or swapped
