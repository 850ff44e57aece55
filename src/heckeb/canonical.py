"""Canonical bases of level-2 Fock spaces and graded decomposition matrices.

For each crystal vertex mu a monomial vector A(mu) is built by replaying the
peeling path of mu as divided powers of the f_i on the vacuum; the canonical
basis G(mu) is obtained from A(mu) by a triangular correction process that
leaves all off-diagonal coefficients in vZ[v].  The matrix of the G(mu) over
the standard basis is the graded decomposition matrix.
"""

from __future__ import annotations

import functools
import json

from . import check_e
from .combinat import (Bipartition, Partition, enumerate_bipartitions,
                       format_bipartition)
from .crystal import crystal_e, crystal_f, epsilon, uglov_bipartitions
from .errors import ConventionViolation, IncompatibleCharges, NotUglov
from .fock import Charge, FockVector, divided_power_f, fock_modules_isomorphic
from .laurent import VPoly, V_ONE
from .orders import order_key


def default_r(s: Charge) -> int:
    """Order index attached to a charge: max(s_0 - s_1, 0)."""
    return max(s[0] - s[1], 0)


def peeling_path(mu: Bipartition, s: Charge, e: int,
                 policy: str = "min") -> list[tuple[int, int]]:
    """Strings (i, a) reducing mu to the empty bipartition, taking at each
    step the full i-string for the least (policy 'min') or greatest
    (policy 'max') residue i with epsilon_i > 0."""
    residues = range(e) if policy == "min" else range(e - 1, -1, -1)
    path = []
    cur = mu
    while cur.size > 0:
        for i in residues:
            a = epsilon(cur, s, e, i)
            if a > 0:
                for _ in range(a):
                    cur = crystal_e(cur, s, e, i)
                path.append((i, a))
                break
        else:
            raise NotUglov(
                f"{format_bipartition(mu)} is not a crystal vertex of F({s})")
    return path


def principal_monomial(mu: Bipartition, s: Charge, e: int,
                       policy: str = "min") -> FockVector:
    """A(mu): divided powers of the peeling path applied to the vacuum,
    first-peeled string applied last."""
    vec = FockVector.vacuum(s, e)
    for i, a in reversed(peeling_path(mu, s, e, policy)):
        vec = divided_power_f(i, a, vec)
    return vec


@functools.lru_cache(maxsize=None)
def canonical_basis(n: int, s: Charge, e: int, r: int | None = None,
                    policy: str = "min") -> dict[Bipartition, FockVector]:
    """G(mu) for every rank-n crystal vertex mu of F(s).

    Vertices go ascending in order_key, a linear extension of ⊴_r, and
    corrections are resolved on demand: the offender (coefficient outside
    vZ[v]) greatest in order_key must itself be a crystal vertex
    (ConventionViolation otherwise), and its canonical vector is computed
    recursively.  The principal monomials are not triangular in general,
    but the dependency graph has no cycles for any charge met in practice.

    The loop for one vertex ends: subtracting beta G(nu) takes the largest
    offender nu into vZ[v], and adds only terms of G(nu) below nu in ⊴_r,
    so below nu in order_key.  So the largest offender strictly decreases
    in order_key, through the finitely many bipartitions of n.  That is
    checked at each step, and a step that does not lower it raises
    ConventionViolation.
    """
    s = tuple(s)
    if r is None:
        r = default_r(s)
    key = functools.partial(order_key, r=r)
    uglov = uglov_bipartitions(n, s, e)
    uglov_set = set(uglov)
    basis: dict[Bipartition, FockVector] = {}
    in_progress: set[Bipartition] = set()

    def compute(mu: Bipartition) -> FockVector:
        if mu in basis:
            return basis[mu]
        if mu in in_progress:
            raise ConventionViolation(
                f"cyclic correction at {format_bipartition(mu)}")
        in_progress.add(mu)
        g = principal_monomial(mu, s, e, policy)
        last = None
        while offenders := [nu for nu, c in g.terms.items()
                            if nu != mu and not c.in_v_zv()]:
            nu = max(offenders, key=key)
            if last is not None and key(nu) >= key(last):
                raise ConventionViolation(
                    f"correcting {format_bipartition(last)} in "
                    f"{format_bipartition(mu)} left the offender "
                    f"{format_bipartition(nu)}, not below it in order_key")
            if nu not in uglov_set:
                raise ConventionViolation(
                    f"correction term {format_bipartition(nu)} of "
                    f"{format_bipartition(mu)} is not a crystal vertex")
            beta = g.terms[nu].symmetric_completion()
            g = g - compute(nu).scale(beta)
            last = nu
        if g.coeff(mu) != V_ONE:
            raise ConventionViolation(
                f"diagonal coefficient of {format_bipartition(mu)} "
                f"is {g.coeff(mu)}")
        in_progress.discard(mu)
        basis[mu] = g
        return g

    for mu in sorted(uglov, key=key):
        compute(mu)
    return basis


class DecompositionMatrix:
    """Rows indexed by all bipartitions of n, columns by crystal vertices;
    entry (lam, mu) is the coefficient of lam in G(mu)."""

    def __init__(self, n: int, s: Charge, e: int, r: int,
                 rows: list[Bipartition], cols: list[Bipartition],
                 entries: dict[tuple[Bipartition, Bipartition], VPoly],
                 v1: bool = False):
        self.n = n
        self.s = tuple(s)
        self.e = e
        self.r = r
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self.v1 = v1

    def entry(self, lam: Bipartition, mu: Bipartition) -> VPoly:
        return self.entries.get((lam, mu), VPoly())

    def _fmt(self, p: VPoly) -> str:
        return str(p.at_one()) if self.v1 else str(p)

    def to_tsv(self) -> str:
        head = "\t".join([""] + [format_bipartition(m) for m in self.cols])
        lines = [head]
        for lam in self.rows:
            cells = [self._fmt(self.entry(lam, mu)) for mu in self.cols]
            lines.append("\t".join([format_bipartition(lam)] + cells))
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "schema": "1",
            "n": self.n,
            "charge": list(self.s),
            "e": self.e,
            "r": self.r,
            "rows": [format_bipartition(x) for x in self.rows],
            "cols": [format_bipartition(x) for x in self.cols],
            "v1": self.v1,
            "entries": [
                [format_bipartition(lam), format_bipartition(mu),
                 self._fmt(self.entry(lam, mu))]
                for lam in self.rows for mu in self.cols
                if not self.entry(lam, mu).is_zero()],
        }, ensure_ascii=False, indent=2)

    to_text = to_tsv


def decomposition_matrix(n: int, s: Charge, e: int, r: int | None = None,
                         specialize_v1: bool = False) -> DecompositionMatrix:
    s = tuple(s)
    if r is None:
        r = default_r(s)
    basis = canonical_basis(n, s, e, r)
    rows = list(enumerate_bipartitions(n))
    cols = sorted(basis)
    entries = {}
    for mu, g in basis.items():
        for lam, c in g.terms.items():
            entries[(lam, mu)] = c
    return DecompositionMatrix(n, s, e, r, rows, cols, entries,
                               v1=specialize_v1)


def charge_from(r: int, d: int, e: int) -> Charge:
    """Charge (d + pe, 0) with p = floor((r - d) / e); its order index is
    compatible with the r-dominance order used on the algebra side."""
    p = (r - d) // check_e(e)
    return (d + p * e, 0)


def gamma(mu: Bipartition, s1: Charge, s2: Charge, e: int) -> Bipartition:
    """Canonical crystal isomorphism F(s1) -> F(s2) on vertices: peel mu to
    the vacuum in the s1-crystal and replay the residue word in s2."""
    if not fock_modules_isomorphic(s1, s2, check_e(e)):
        raise IncompatibleCharges(f"{s1} and {s2} differ mod {e}Z^2")
    # any path to the vacuum will do: a crystal isomorphism commutes with
    # every e_i, so each path gives the same image
    word = [i for i, a in peeling_path(mu, s1, e) for _ in range(a)]
    out = Bipartition(Partition(()), Partition(()))
    for i in reversed(word):
        nxt = crystal_f(out, s2, e, i)
        if nxt is None:
            raise ConventionViolation(
                f"residue word of {format_bipartition(mu)} does not lift "
                f"to F({s2})")
        out = nxt
    return out
