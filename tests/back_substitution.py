"""Expansion in a triangular basis by back-substitution.

The oracle for the W-graph read-off of heckeb.hecke: it expands any
HeckeElement in the C-basis or in the cellular basis C_{S,T} by the
definition, longest term first, with no KL data but the basis itself.
"""

from heckeb.domino import _len_key, length


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


def expand_in_cellular(datum, h):
    """Coefficients of h in the C_{S,T} basis of a CellDatum, keyed by
    (S, T).  C_{S,T} = dagger(C_w) is T_w times (-1)^{l(w)} plus shorter
    terms, w = w(S, T)."""
    leading = {w: st for st, w in datum.w_of.items()}
    return back_substitute(h, datum.basis,
                           lambda y: (leading[y], (-1) ** length(y)))
