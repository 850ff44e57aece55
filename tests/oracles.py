"""Reference implementations that the tests compare heckeb against.

Each one computes by the definition what the library reaches another way,
and no command of the library runs it: the classical dominance order
written out, the Chevalley generator e_i and the weight N_i of the Fock
space, the bitableau of a domino tableau read off its 2-core, the
generators of W_n as signed permutations, and the strictly negative
truncation that solves x - bar(x) = f in the bar-solve KL basis.
"""

from itertools import accumulate
from operator import le

from heckeb.combinat import Partition, delta_core
from heckeb.domino import DominoTableau, SignedPermutation, _domino, _qtilde
from heckeb.errors import CoreMismatch, InvalidArgument, SizeMismatch
from heckeb.fock import (FockVector, _check_residue, _without_node,
                         addable_nodes, node_key, removable_nodes, residue)
from heckeb.laurent import ACoeff, VPoly, XiOrder


def dominance_inf_explicit(a, b):
    """Classical dominance on bipartitions, written out with prefix sums:
    those of the first components, then |first| plus those of the second.

    Kept separate from dominance_r(..., INFINITY) so the two can be checked
    against each other; dominance_r is normative if they ever disagree.
    """
    if a.size != b.size:
        raise SizeMismatch(f"|{a}| = {a.size} != {b.size} = |{b}|")
    width = max(len(p.parts) for x in (a, b) for p in (x.first, x.second))

    def sums(x):
        return accumulate(p.parts[j] if j < len(p.parts) else 0
                          for p in (x.first, x.second) for j in range(width))

    return all(map(le, sums(a), sums(b)))


def weight_ni(bip, s, e, i):
    """N_i = (addable i-nodes) - (removable i-nodes)."""
    add = sum(1 for g in addable_nodes(bip) if residue(g, s, e) == i)
    rem = sum(1 for g in removable_nodes(bip) if residue(g, s, e) == i)
    return add - rem


def e_action(i, vec):
    """e_i: remove one box of residue i in all ways, with exponent
    (lower removable i-nodes of the source) - (lower addable i-nodes of
    the target)."""
    _check_residue(i, vec.e)
    s, e = vec.s, vec.e
    out = {}
    for bip, c in vec.terms.items():
        rem_i = [g for g in removable_nodes(bip) if residue(g, s, e) == i]
        for g in rem_i:
            target = _without_node(bip, g)
            d = sum(1 for h in rem_i if node_key(h, s) < node_key(g, s)) \
                - sum(1 for h in addable_nodes(target)
                      if residue(h, s, e) == i and node_key(h, s) < node_key(g, s))
            out[target] = out.get(target, VPoly()) + c * VPoly.monomial(d)
    return FockVector(s, e, out)


def staircase_index(core: Partition) -> int:
    """r such that core = delta_r; raises if core is not a staircase."""
    r = len(core.parts)
    if core != delta_core(r):
        raise CoreMismatch(f"{core} is not a staircase 2-core")
    return r


def qtilde_r(d: DominoTableau):
    """Bitableau image of a standard domino tableau: the box that each
    domino adds to the 2-quotient, read on the abacus (see domino._qtilde)."""
    return _qtilde(staircase_index(d.core),
                   [(k, _domino(cells)) for k, cells in sorted(d.dominoes)])


def generator(n, i):
    """Generator i of W_n: index 0 is t (sign change in slot 1), index
    i >= 1 is the adjacent transposition s_i."""
    if not 0 <= i < n:
        raise InvalidArgument(f"generator index {i} outside 0..{n - 1}")
    w = list(range(1, n + 1))
    if i == 0:
        w[0] = -1
    else:
        w[i - 1], w[i] = w[i], w[i - 1]
    return SignedPermutation(tuple(w))


def is_strictly_negative(order: XiOrder, x: ACoeff) -> bool:
    """Whether every exponent of x is negative in the order."""
    return all(order.sign(g) < 0 for g in x.terms)


def antisymmetric_solution(order: XiOrder, f: ACoeff) -> ACoeff:
    """The unique x with all exponents negative in the order and
    x - bar(x) = f, for f with bar(f) = -f: the strictly-negative
    truncation of f."""
    if f.bar() != -f:
        raise InvalidArgument(f"{f} is not antisymmetric")
    return ACoeff({g: c for g, c in f.terms.items() if order.sign(g) < 0})
