"""Expansion in a triangular basis by back-substitution.

The oracle for the W-graph read-off of heckeb.hecke: it expands any
HeckeElement in the C-basis or in the cellular basis C_{S,T} by the
definition, longest term first, with no KL data but the basis itself.
The cellular basis is the reference one, built from kl_basis and the
closed form of dagger, not read off the sweep as the datum reads it.
"""

import functools

from heckeb.domino import _len_key, kernel, length
from heckeb.hecke import HeckeElement, cell_datum, kl_basis


def back_substitute(h, basis, leading):
    """Coefficients of h in a basis that is triangular over _len_key.

    leading(y) is (key, sign): basis[key] is T_y times sign (+1 or -1)
    plus terms shorter in _len_key order."""
    rem = h
    out = {}
    while not rem.is_zero():
        y = max(rem.terms, key=_len_key)
        key, sign = leading(y)
        c = rem.terms[y] if sign > 0 else -rem.terms[y]
        out[key] = c
        rem = rem - basis[key].scale(c)
    return out


def expand_in_kl(h, basis):
    """Coefficients of h in the C-basis of kl_basis."""
    return back_substitute(h, basis, lambda y: (y, 1))


def dagger_bar_fixed(h):
    """dagger(h) for a bar-invariant h = sum_y p_y T_y, such as C_w, in
    closed form: sum_y (-1)^{l(y)} bar(p_y) T_y (proved where
    CellDatum.element reads it off the sweep)."""
    kern = kernel(h.n)
    return HeckeElement(h.n, {
        y: -c.bar() if kern.length[kern.index[y]] % 2 else c.bar()
        for y, c in h.terms.items()})


@functools.lru_cache(maxsize=None)
def cellular_basis(n, order):
    """The reference C_{S,T} = dagger(C_w) of cell_datum(n, order) as
    HeckeElements, keyed by (S, T)."""
    klb = kl_basis(n, order)
    return {st: dagger_bar_fixed(klb[w])
            for st, w in cell_datum(n, order).w_of.items()}


def expand_in_cellular(datum, h):
    """Coefficients of h in the reference C_{S,T} basis of a CellDatum,
    keyed by (S, T).  C_{S,T} = dagger(C_w) is T_w times (-1)^{l(w)} plus
    shorter terms, w = w(S, T)."""
    leading = {w: st for st, w in datum.w_of.items()}
    return back_substitute(h, cellular_basis(datum.n, datum.order),
                           lambda y: (leading[y], (-1) ** length(y)))
