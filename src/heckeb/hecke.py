"""The generic Hecke algebra of type B and its Kazhdan-Lusztig theory.

Elements are sparse combinations of the standard basis T_w with
coefficients in Z[q^{+-1}, Q^{+-1}]; the parameter of t is Q = e^b and of
each s_i is q = e^a.  A total order on Z^2 (an XiOrder) selects negative
exponents; the Kazhdan-Lusztig element of w is the unique bar-fixed element
congruent to T_w modulo strictly negative coefficients.

One sweep over the ascents ws > w builds every C_{ws} from C_w C_s by
Lusztig's recursion (Hecke algebras with unequal parameters, Thm 6.6) and
keeps the mu it reads off the same products.  T_t C_w = v_t C_w for each
left descent t of w (Thm 6.6(b)), so the coefficient of C_w one left step
tz < z below a position z is v_t^{-1} times the one at z.  The sweep keeps
each C_w only at its left-extremal positions, the z with tz < z for every
left descent t of w (du Cloux's extremal pairs, Experiment. Math. 11, 2002),
and reduces only the positions of C_w C_s that are extremal for (LD(w),
{s}), where zs < z as well; _expand fills in a whole C_w where one is
read: in the sweep for each mu C_y with LD(y) != LD(w), once per y, and
for kl_basis and cellularity_check.

The mu and the descent sets are the W-graph of H_n: on the right,
C_w T_s = v_s C_w when ws < w, and C_w T_s = C_{ws} + sum_y mu^s_{y,w} C_y
- v_s^{-1} C_w when ws > w.  It is the one source of both the cells and the
cell-module action.  Cells are the strongly connected components of its
edges w -> {ws, y}, of their star image (star(C_w) = C_{w^{-1}}, so a
left mu at (y, w) is the right mu at (y^{-1}, w^{-1})) and of their union
(_cells); the conjecture checkers compare them with the insertion fibers.
The cellular datum holds its sweep; the action of T_s on C_{S,T} =
dagger(C_w) (_generator_action) and the Gram forms (gram_form) are read off
its W-graph, with no expanded C_w and no product in the algebra.

Whatever is built from a sweep is cached for two slopes, as the sweep is:
kl_basis, cell_datum and _cells keep two entries, the last two keyed by
(n, order) alone as the sweep is (_cells finds the components of all
three sides in one pass), and cells six (two slopes, three sides); tables
keyed by rank and r alone are kept for good.

The hot paths run on the integer kernel of W_n (domino.kernel): products by
a generator are table lookups, the sweep keys its terms by position, and
each cell is a label by position, compared with the insertion table by
position too.  Signed permutations appear only at the public boundary
(HeckeElement, kl_basis, cells).

An exponent q^alpha Q^beta is the integer key of laurent.pack, which holds
it while |beta| < 2^15.  Every exponent met in H_n stays within
l(w_0) = n^2: a coefficient of T_x T_y, of bar(T_w) or of C_w gains at most
one factor v_s^{+-1} per letter of a reduced word, so |alpha| + |beta| is at
most l(w_0).  The Gram forms and determinants built from them in specht
multiply a handful of such coefficients, so no rank within reach comes
near the bound.
"""

from __future__ import annotations

import functools
import json
from array import array
from bisect import insort

from . import Value, check_bound
from .combinat import Bipartition, format_bipartition
from .domino import (SignedPermutation, _len_key, insertion_table, kernel,
                     reduced_word, StandardBitableau)
from .errors import (ConjectureAViolation, InvalidArgument,
                     KLRecursionViolation)
from .laurent import A_ONE, A_ZERO, ACoeff, XiOrder, add_product, pack
from .orders import order_table

KL_BOUND = 4

GAMMA_T = pack(0, 1)   # parameter b of the generator t
GAMMA_S = pack(1, 0)   # parameter a of the generators s_i


def generator_gamma(i: int) -> int:
    """The exponent key of v_s for generator i."""
    return GAMMA_T if i == 0 else GAMMA_S


def _quad(i: int) -> ACoeff:
    """v_s - v_s^{-1} for generator i."""
    gamma = generator_gamma(i)
    return ACoeff({gamma: 1, -gamma: -1})


class HeckeElement(Value):
    """Sparse element of H_n in the standard basis."""

    __slots__ = ("n", "terms")
    _fields = ("n", "terms")

    def __init__(self, n: int, terms: dict[SignedPermutation, ACoeff] | None = None):
        self.n = n
        self.terms = {w: c for w, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def t_basis(cls, w: SignedPermutation, coeff: ACoeff = A_ONE) -> "HeckeElement":
        return cls(w.n, {w: coeff})

    @classmethod
    def unit(cls, n: int) -> "HeckeElement":
        return cls.t_basis(SignedPermutation.identity(n))

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, w: SignedPermutation) -> ACoeff:
        return self.terms.get(w, ACoeff())

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, ACoeff()) + c
        return HeckeElement(self.n, out)

    def __neg__(self) -> "HeckeElement":
        return HeckeElement(self.n, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + (-other)

    def scale(self, c: ACoeff) -> "HeckeElement":
        return HeckeElement(self.n, {w: cc * c for w, cc in self.terms.items()})

    def mul_gen(self, i: int, left: bool = False) -> "HeckeElement":
        """self T_s, or T_s self with left=True, for generator s of index i.

        T_w T_s is T_{ws} on an ascent and T_{ws} + (v_s - v_s^{-1}) T_w on
        a descent, read off the kernel's multiplication tables."""
        kern = kernel(self.n)
        table = (kern.left if left else kern.right)[i]
        elements, index = kern.elements, kern.index
        quad = _quad(i)
        out: dict[SignedPermutation, ACoeff] = {}
        for w, c in self.terms.items():
            k = index[w]
            j = table[k]
            wg = elements[j]
            out[wg] = out.get(wg, A_ZERO) + c
            if j < k:
                out[w] = out.get(w, A_ZERO) + c * quad
        return HeckeElement(self.n, out)

    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        if self.n != other.n:
            raise InvalidArgument(f"product of H_{self.n} and H_{other.n}")
        total = HeckeElement(self.n)
        for w2, c2 in other.terms.items():
            acc = self
            for i in reduced_word(w2):
                acc = acc.mul_gen(i)
            total = total + acc.scale(c2)
        return total

    def __str__(self) -> str:
        return " + ".join(f"({self.terms[w]})*T[{w}]" for w in
                          sorted(self.terms, key=_len_key)) or "0"

    __repr__ = __str__


@functools.lru_cache(maxsize=None)
def _bar_t(n: int) -> list[HeckeElement]:
    """bar(T_w) = T_{w^{-1}}^{-1} by kernel position, built along reduced
    words: bar(T_s) = T_s - (v_s - v_s^{-1})."""
    return kernel(n).along_words(
        HeckeElement.unit(n),
        lambda x, i: x.mul_gen(i) - x.scale(_quad(i)))


def _image(h: HeckeElement, table: list[HeckeElement], coeff) \
        -> HeckeElement:
    """sum_w coeff(c_w) table[w] for h = sum_w c_w T_w, accumulated on one
    exponent dict per T_y."""
    index = kernel(h.n).index
    acc: dict[SignedPermutation, dict] = {}
    for w, c in h.terms.items():
        x = coeff(c).terms.items()
        for y, d in table[index[w]].terms.items():
            add_product(acc.setdefault(y, {}), x, d.terms.items())
    return HeckeElement(h.n, {y: ACoeff(t) for y, t in acc.items()})


def bar(h: HeckeElement) -> HeckeElement:
    """The A-antilinear bar involution of H_n."""
    return _image(h, _bar_t(h.n), ACoeff.bar)


# --- Kazhdan-Lusztig basis and cells -----------------------------------------

class _Coefficients:
    """The coefficients of one sweep as value ids: small ints naming one
    entry of terms, each value held once.

    A value is a tuple of (key, coefficient) pairs sorted by key, with no
    zero coefficient; intern returns its id, and terms[id] is the value.
    Id 0 is zero and id 1 is one, so an id is true exactly when its value
    is nonzero.  The memos are indexed by id: the shifts by +-gamma_t and
    +-gamma_s are lists (-1 = not yet computed), grown with terms, and
    whether a value has a non-negative exponent is a bytearray (2 = not yet
    computed).  That test and the symmetric completion go through order, so
    a tie raises there and is never stored."""

    __slots__ = ("order", "terms", "ids", "shifted", "nonneg", "_completion")

    def __init__(self, order: XiOrder):
        self.order = order
        self.terms: list[tuple] = []
        self.ids: dict[tuple, int] = {}
        # shift -> id -> id of the shifted value; shifts are +-gamma_t and
        # +-gamma_s
        self.shifted: dict[int, list[int]] = {
            g: [] for g in (GAMMA_T, -GAMMA_T, GAMMA_S, -GAMMA_S)}
        self.nonneg = bytearray()
        self._completion: dict[int, int] = {}
        self.intern({})
        self.intern({0: 1})

    def __repr__(self) -> str:
        return f"_Coefficients(order={self.order!r}, terms={self.terms!r})"

    def intern(self, terms: dict[int, int]) -> int:
        """The id of the value of terms, zeros dropped; 0 if all cancel."""
        c = tuple(sorted(kx for kx in terms.items() if kx[1]))
        out = self.ids.get(c)
        if out is None:
            out = self.ids[c] = len(self.terms)
            self.terms.append(c)
            for memo in self.shifted.values():
                memo.append(-1)
            self.nonneg.append(2)
        return out

    def shift(self, c: int, g: int) -> int:
        """The id of value c times e^g."""
        memo = self.shifted[g]
        out = memo[c]
        if out < 0:
            out = memo[c] = self.intern({k + g: x for k, x in self.terms[c]})
        return out

    def has_nonneg(self, c: int) -> bool:
        """Whether some exponent of value c is >= 0 under the order."""
        out = self.nonneg[c]
        if out == 2:
            sign = self.order.sign
            out = self.nonneg[c] = any(sign(k) >= 0 for k, _ in self.terms[c])
        return bool(out)

    def completion(self, c: int) -> int:
        """The id of order.symmetric_completion of value c."""
        out = self._completion.get(c)
        if out is None:
            done = self.order.symmetric_completion(ACoeff(dict(self.terms[c])))
            out = self._completion[c] = self.intern(done.terms)
        return out


def _expand(kern, coeffs: _Coefficients, w: int, stored) \
        -> tuple[array, array]:
    """Every term of C_w, packed as the sweep packs its stored terms, the
    positions increasing: from stored, the terms at the left-extremal
    positions y of w (LD(w) in LD(y)), each other term is a left step
    below a known one, x_{tx} = v_t^{-1} x_x for t in LD(w) and tx < x, as
    T_t C_w = v_t C_w.  Shifts go through the memos of coeffs, whose ids
    are append-only."""
    steps = [(left, coeffs.shifted[-g], -g)
             for t, left in enumerate(kern.left) if left[w] < w
             for g in (generator_gamma(t),)]
    out = dict(zip(*stored))
    pending = list(out)
    while pending:
        x = pending.pop()
        c = out[x]
        for left, down, h in steps:
            tx = left[x]
            if tx < x and tx not in out:
                ct = down[c]
                out[tx] = ct if ct >= 0 else coeffs.shift(c, h)
                pending.append(tx)
    positions = sorted(out)
    return array("I", positions), array("I", map(out.get, positions))


@functools.lru_cache(maxsize=2)
def _kl_sweep(n: int, order: XiOrder):
    """C_w for all w in W_n and the W-graph, from one pass over the ascents
    (w, s), ws > w, in kernel order.

    By Lusztig, Hecke algebras with unequal parameters (2003), Thm 6.6,
    C_w C_s = C_{ws} + sum_{y < w, ys < y} mu^s_{y,w} C_y with bar-invariant
    mu.  The product C_w C_s = C_w T_s + v_s^{-1} C_w is bar-invariant with
    leading term T_{ws}; walking its terms from the longest down and
    subtracting the bar-invariant completion of each coefficient times C_y
    leaves C_{ws}, and each mu is that completion, kept where it is nonzero.

    The storage.  T_t C_w = v_t C_w for each left descent t of w (Thm
    6.6(b)), and an h with T_t h = v_t h has h_z = v_t^{-1} h_{tz} whenever
    tz > z: the coefficient of T_t h at z is h_{tz}, as T_t T_{tz} = T_z +
    (v_t - v_t^{-1}) T_{tz} and T_t T_z = T_{tz}.  So with I = LD(w), C_w
    holds one value on each left coset W_I z, at its top z*, the one
    element of the coset with I in LD(z*), and p_{z,w} = e^{-(L(z*) -
    L(z))} p_{z*,w}, L the weighted length (du Cloux's extremal pairs,
    Experiment. Math. 11, 2002).  C_w is kept at these left-extremal
    positions only, 7,884 of the 40,249 terms of the rank-4 basis at r = 1
    (416,896 of 3,089,459 at rank 5), and _expand fills in the rest.  Two
    facts on an I-top y and a generator s:
    - if ys > y, ys is an I-top: for t in I, tys > ys would give l(tys) =
      l(y) + 2, while tys = (ty)s has length at most l(y).
    - if ys < y and ys is not an I-top, then t(ys) = y for exactly one t in
      I, and v_t = v_s (Deodhar's lemma).  Take t in I with u = ys < tu.
      Then (tu)s = ty is shorter than tu, so by the exchange condition it
      is t a_1 ... a_k, for a reduced word a_1 ... a_k of u, with one letter
      deleted.  Deleting some a_j would give us = a_1 ... (a_j) ... a_k,
      shorter than u, while us = y > u; so t is deleted, and tus = u, that
      is t(ys) = y.  So t = y s y^{-1}, which is unique and conjugate to s,
      and conjugate generators have one parameter (t and the s_i of type B
      are not conjugate).

    The product, for an ascent (w, s) and I = LD(w).  I is in LD(ws): for
    t in I, tws > ws would give l(tws) = l(w) + 2, while tws = (tw)s has
    length at most l(w).  So X = C_w C_s has T_t X = v_t X for t in I, and
    X T_s = v_s X, as C_s T_s = v_s C_s: comparing X T_s with v_s X at zs <
    z gives x_{zs} = v_s^{-1} x_z.  R = X - C_{ws} = sum_y mu^s_{y,w} C_y
    has T_t R = v_t R, and that eigenspace has C-basis {C_y : ty < y}: in
    T_t R - v_t R the coefficient of a C_y with ty > y is -(v_t + v_t^{-1})
    mu_y, as T_t C_y = C_{ty} + sum_{tz < z} mu C_z - v_t^{-1} C_y there.
    So mu^s_{y,w} != 0 forces I in LD(y), and X, each mu C_y and C_{ws} are
    all fixed by their values at the positions z extremal for (I, {s}): zs
    < z and I in LD(z).  x_z = c_{zs} + v_s c_z there, from T_y T_s +
    v_s^{-1} T_y, which is T_{ys} + v_s^{-1} T_y on an ascent y and T_{ys}
    + v_s T_y on a descent.  So only the stored terms of C_w are read.  A
    stored ascent y lands at ys, an I-top by the first fact.  A stored
    descent y lands at y as v_s c_y; if its partner ys is off the store,
    the second fact gives c_{ys} = v_t^{-1} c_y = v_s^{-1} c_y, which lands
    at y as well.  A term off the store lands at an I-top in no other way:
    at an ascent y it lands at ys, whose partner it is when ys is an
    I-top, and at a descent y it lands at y itself.  The mu C_y are
    subtracted at the extremal positions of C_y: its stored ones when
    LD(y) = I, else those of its expansion.  Of the values at the extremal
    positions, those at the LD(ws)-tops are kept, and each ascent zs that
    is an LD(ws)-top gets the value at z shifted by -gamma_s; an ascent
    that is an LD(ws)-top goes up to one by the first fact.

    Each C_y with LD(y) != I is expanded once per sweep, into a dict that
    lives for this call only, so the sweep still retains (basis, wgraph,
    coeffs) alone.  At rank 4, r = 1 that is 102 expansions where one per
    mu made 280; at rank 5, r = 1 it is 1,464 where 7,182 were made, and
    the dict holds their 936,694 terms, about 7 MB of the sweep's 55 MB
    peak RSS (48 MB with one expansion per mu).

    The checks see every value a build computes, zeros included.  The
    first build of C_{ws} is checked, on its position -> id dict, to be
    T_{ws} plus strictly negative terms.  Every later build along another
    right descent of ws is packed and compared entry by entry with the
    stored arrays.  Each computed value off the store, at an I-top z that
    is not an LD(ws)-top, is compared with the stored value at the top of
    W_{LD(ws)} z shifted down the left steps between them: that checks
    T_t C_{ws} = v_t C_{ws} for the t in LD(ws) but not in I, which the
    build did not assume.  Ids name values one to one, so equal ids are
    equal coefficients.  Every term of C_{ws} that is not computed is a
    computed one shifted down left steps in I or the step s, by a nonzero
    weight -(L(z*) - L(z)) with a, b <= 0, which takes an exponent 0 or
    strictly negative to a strictly negative one, as xi > 0; so the first
    check covers every term of C_{ws}.

    Everything is keyed by kernel position, and each coefficient is a value
    id of _Coefficients.  A work entry holds the id while a single product
    term lands on its position, becomes an exponent dict of its own when a
    second term or a mu C_y subtraction arrives, and is interned when
    popped.  Each C_w is kept packed as two 4-byte arrays, its stored
    positions in increasing order and the value id at each.  Returns
    (basis, wgraph, coeffs): basis[w] is that pair of arrays for C_w,
    coeffs the _Coefficients whose terms[id] is the value of an id, and
    wgraph[i] is three 4-byte arrays (starts, ys, mus) for generator i: the
    y with mu^s_{y,w} != 0 and the ids of their mu are ys[k] and mus[k] for
    starts[w] <= k < starts[w + 1], an empty range at a descent of w.
    """
    kern = kernel(n)
    size = len(kern.elements)
    coeffs = _Coefficients(order)
    intern, shift, shifted = coeffs.intern, coeffs.shift, coeffs.shifted
    has_nonneg, completion = coeffs.has_nonneg, coeffs.completion
    terms, nonneg = coeffs.terms, coeffs.nonneg
    basis: list[tuple[array, array] | None] = [None] * size
    basis[0] = (array("I", [0]), array("I", [1]))
    wgraph = [(array("I", [0]), array("I"), array("I")) for _ in range(n)]

    # ld[z]: bit t set for each left descent tz < z
    ld = [0] * size
    for t, left in enumerate(kern.left):
        for z, tz in enumerate(left):
            if tz < z:
                ld[z] |= 1 << t
    # per t: its left table and -gamma_t
    lowering = [(left, -generator_gamma(t))
                for t, left in enumerate(kern.left)]
    # y -> C_y expanded, for the mu C_y with LD(y) != LD(w); this sweep's
    # only, dropped when it returns
    expanded: dict[int, tuple[array, array]] = {}

    def times_c_s(w: int, i: int, ws: int) -> tuple[dict, dict]:
        """C_w C_s reduced to C_{ws} at the extremal positions for (LD(w),
        {s}), and its ascents that are LD(ws)-tops, as a position -> id
        dict, zeros kept; and the y -> id dict of the mu^s_{y,w} != 0.

        The extremal positions below ws are visited longest first from an
        ascending frontier popped at its end, and a term is final when it
        is popped: subtracting mu C_y only adds terms below y, each
        inserted once."""
        lds = ld[w]
        g = generator_gamma(i)
        table = kern.right[i]
        up = shifted[g]
        work: dict[int, int | dict[int, int]] = {}
        for y, c in zip(*basis[w]):
            z = table[y]
            if z > y:
                cz = c
            else:
                if ld[z] & lds != lds:
                    # the partner ys is off the store, and nothing else
                    # lands at y: c_{ys} = v_s^{-1} c_y
                    work[y] = shift(c, -g)
                # shift's memo lookup, inlined on the hottest loop
                z, cz = y, up[c]
                if cz < 0:
                    cz = shift(c, g)
            acc = work.get(z)
            if acc is None:
                work[z] = cz
                continue
            if type(acc) is int:
                acc = work[z] = dict(terms[acc])
            for k, x in terms[cz]:
                acc[k] = acc.get(k, 0) + x
        frontier = sorted(y for y in work if y != ws)
        c = work[ws]
        out = {ws: c if type(c) is int else intern(c)}
        mus = {}
        while frontier:
            y = frontier.pop()
            c = work[y]
            if type(c) is not int:
                c = intern(c)
            # has_nonneg's memo lookup, inlined as well
            known = nonneg[c]
            if known == 1 or known == 2 and has_nonneg(c):
                mu = completion(c)
                if mu:
                    mus[y] = mu
                    mu = terms[mu]
                    if ld[y] == lds:
                        cy = basis[y]
                    elif (cy := expanded.get(y)) is None:
                        cy = expanded[y] = _expand(kern, coeffs, y, basis[y])
                    for z, cz in zip(*cy):
                        if table[z] > z or ld[z] & lds != lds:
                            continue
                        acc = work.get(z)
                        if acc is None:
                            acc = work[z] = {}
                            insort(frontier, z)
                        elif type(acc) is int:
                            acc = work[z] = dict(terms[acc])
                        add_product(acc, mu, terms[cz], -1)
                    c = intern(work[y])
            out[y] = c
        top = ld[ws]
        down = shifted[-g]
        for z, c in list(out.items()):
            zs = table[z]
            if c and ld[zs] & top == top:
                cs = down[c]
                out[zs] = cs if cs >= 0 else shift(c, -g)
        return out, mus

    for w in range(size):
        for i, (starts, ys, mus) in enumerate(wgraph):
            ws = kern.right[i][w]
            if ws < w:
                starts.append(len(ys))
                continue
            c_ws, mu = times_c_s(w, i, ws)
            first = basis[ws] is None
            # the top term, id 1, is the one term with an exponent >= 0
            if first and (c_ws[ws] != 1
                          or sum(map(has_nonneg, c_ws.values())) > 1):
                element = HeckeElement(
                    n, {kern.elements[y]: ACoeff(dict(terms[c]))
                        for y, c in c_ws.items()})
                raise KLRecursionViolation(
                    f"C[{kern.elements[ws]}] = {element} + ... is not "
                    f"T[{kern.elements[ws]}] plus strictly negative "
                    f"terms at xi = {order.xi}")
            top = ld[ws]
            kept, off = {}, []
            for z, c in c_ws.items():
                if ld[z] & top != top:
                    off.append((z, c))
                elif c:
                    kept[z] = c
            positions = sorted(kept)
            packed = (array("I", positions),
                      array("I", map(kept.__getitem__, positions)))
            if first:
                basis[ws] = packed
            elif basis[ws] != packed:
                raise KLRecursionViolation(
                    f"C[{kern.elements[w]}] C[s{i}] gives a second "
                    f"C[{kern.elements[ws]}] at xi = {order.xi}")
            for z, c in off:
                # up to the top x of W_{LD(ws)} z, and its value back down
                x, path = z, []
                while m := top & ~ld[x]:
                    path.append(lowering[(m & -m).bit_length() - 1])
                    x = path[-1][0][x]
                expected = kept.get(x, 0)
                for _, h in path:
                    expected = shift(expected, h)
                if expected != c:
                    raise KLRecursionViolation(
                        f"C[{kern.elements[ws]}] has a term at "
                        f"{kern.elements[z]} off the coset top "
                        f"{kern.elements[x]} at xi = {order.xi}")
            ys.extend(mu)
            mus.extend(mu.values())
            starts.append(len(ys))
    return basis, wgraph, coeffs


# Cached as well as the sweep so that cache_info() counts its lookups.
@functools.lru_cache(maxsize=2)
def kl_basis(n: int, order: XiOrder, bound: int = KL_BOUND) \
        -> dict[SignedPermutation, HeckeElement]:
    """The Kazhdan-Lusztig basis C_w for all w in W_n, in _len_key order.

    Each C_w is bar-fixed and congruent to T_w modulo strictly negative
    coefficients.  It is built by Lusztig's recursion C_w C_s = C_{ws} +
    sum mu C_y (Hecke algebras with unequal parameters, Thm 6.6), in one
    sweep per (n, xi) that every bound and the cells share, and expanded
    here from the left-extremal terms the sweep keeps.  Each distinct
    coefficient is one ACoeff that every C_w holding it shares, so it must
    never be changed in place.
    """
    check_bound(n, bound)
    kern = kernel(n)
    elements = kern.elements
    basis, _, coeffs = _kl_sweep(n, order)
    wrapped: dict[int, ACoeff] = {}

    def wrap(c: int) -> ACoeff:
        out = wrapped.get(c)
        if out is None:
            out = wrapped[c] = ACoeff._of(dict(coeffs.terms[c]))
        return out

    return {elements[w]: HeckeElement(n, {elements[y]: wrap(c) for y, c in
                                          zip(*_expand(kern, coeffs, w, cw))})
            for w, cw in enumerate(basis)}


def _components(succ: list) -> tuple[list[int], list[int]]:
    """The strongly connected components of the graph with successor lists
    succ on 0..N-1, by Tarjan's algorithm (SIAM J. Comput. 1, 1972) on an
    explicit DFS path: comp[v] numbers v's component in the order the
    components close, so every edge v -> u has comp[u] <= comp[v]; bit d
    of below[c] is set iff component c reaches d (so c too), ORed in as c
    closes.  found[v] is v's place in opened, the vertices of the open
    components in the order found; low[v] is the least place v reaches."""
    found, low, comp = [-1] * len(succ), [0] * len(succ), [-1] * len(succ)
    below: list[int] = []
    opened: list[int] = []
    for root in range(len(succ)):
        if found[root] >= 0:
            continue
        found[root] = low[root] = 0
        opened.append(root)
        path = [(root, iter(succ[root]))]
        while path:
            v, edges = path[-1]
            for u in edges:
                if found[u] < 0:
                    found[u] = low[u] = len(opened)
                    opened.append(u)
                    path.append((u, iter(succ[u])))
                    break
                if comp[u] < 0 and found[u] < low[v]:
                    low[v] = found[u]
            else:
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] == found[v]:
                    members = opened[found[v]:]
                    del opened[found[v]:]
                    for u in members:
                        comp[u] = len(below)
                    below.append(1 << len(below))
                    for x in {x for u in members for x in succ[u]}:
                        below[-1] |= below[comp[x]]
    return comp, below


@functools.lru_cache(maxsize=2)
def _cells(n: int, order: XiOrder) -> dict[str, tuple[list[int], list[int]]]:
    """The left, right and two-sided cells by kernel position, as side ->
    _components of its edges: y is below w iff bit comp[y] of
    below[comp[w]] is set.  The right edges, read off the W-graph once, are
    w -> ws and w -> y for each mu^s_{y,w} at an ascent ws > w (Lusztig,
    Thm 6.6); the left ones are their star images, as star(C_w) =
    C_{w^{-1}}; the two-sided ones are both."""
    kern = kernel(n)
    right: list[list[int]] = [[] for _ in kern.elements]
    for table, (starts, ys, _) in zip(kern.right, _kl_sweep(n, order)[1]):
        for w, ws in enumerate(table):
            if ws > w:
                right[w] += [ws, *ys[starts[w]:starts[w + 1]]]
    left = [[kern.inverse[y] for y in right[w]] for w in kern.inverse]
    return {"R": _components(right), "L": _components(left),
            "LR": _components([a + b for a, b in zip(right, left)])}


@functools.lru_cache(maxsize=6)
def cells(n: int, order: XiOrder, side: str = "LR", bound: int = KL_BOUND) \
        -> list[set[SignedPermutation]]:
    """The left, right or two-sided cells of W_n, for side 'L', 'R' or 'LR',
    in the order of their first elements: the strongly connected components
    of that side's multiplication graph of the C-basis (Lusztig, Thm 6.6),
    as _cells(n, order)[side] labels them.
    """
    if side not in ("L", "R", "LR"):
        raise InvalidArgument(f"side {side!r} must be 'L', 'R' or 'LR'")
    check_bound(n, bound)
    blocks: dict[int, set[SignedPermutation]] = {}
    for w, c in zip(kernel(n).elements, _cells(n, order)[side][0]):
        blocks.setdefault(c, set()).add(w)
    return list(blocks.values())


def _same_partition(elements, a: list, b: list) -> tuple[bool, str | None]:
    """Whether the labels a and b of the positions of elements (kernel
    order, which is _len_key order) partition them alike; if not, name the
    first element whose blocks differ, and both its blocks."""
    if len(set(zip(a, b))) == len(set(a)) == len(set(b)):
        return True, None
    block: dict = {}
    fiber: dict = {}
    for w, x, y in zip(elements, a, b):
        block.setdefault(x, []).append(str(w))
        fiber.setdefault(y, []).append(str(w))
    w, x, y = next((w, x, y) for w, x, y in zip(elements, a, b)
                   if block[x] != fiber[y])
    return False, (f"first differing element {w}: KL block {block[x]}, "
                   f"fiber {fiber[y]}")


def _cell_clauses(n: int, order: XiOrder) -> dict:
    """Clauses (a), (b) and (c) of Conjecture A: the left, right and
    two-sided cells against the fibers of T, S and the shape under
    insertion, as clause -> {"ok", "detail" on a mismatch}."""
    elements, table = kernel(n).elements, insertion_table(n, order.r)
    found = _cells(n, order)
    clauses = {}
    for clause, side, k in (("a_left_vs_T", "L", 1),
                            ("b_right_vs_S", "R", 0),
                            ("c_twosided_vs_shape", "LR", 2)):
        ok, why = _same_partition(elements, found[side][0],
                                  [entry[k] for entry in table])
        clauses[clause] = {"ok": ok, **({"detail": why} if why else {})}
    return clauses


def conjecture_a_report(n: int, order: XiOrder, bound: int = KL_BOUND) -> dict:
    """Compare KL cells with insertion fibers (clauses a, b, c, c+)."""
    check_bound(n, bound)
    r = order.r
    kern, table = kernel(n), insertion_table(n, r)
    report = {"n": n, "xi": str(order.xi), "r": r,
              "clauses": _cell_clauses(n, order)}
    # (c+): the two-sided preorder against ⊴_r on shapes, compared on the
    # distinct (cell, shape) pairs, as each order reads only those; only a
    # mismatch is located by the pair scan, in kernel order.
    comp, below = _cells(n, order)["LR"]
    index, lower = order_table(n, r)
    shape_at = [index[lam] for _, _, lam in table]
    pairs = set(zip(comp, shape_at))
    bad = None
    if any(below[c2] >> c & 1 != lower[s2] >> s & 1
           for c2, s2 in pairs for c, s in pairs):
        # the first pair (w, w2) where "w below w2" and dominance disagree
        scan = range(len(table))
        bad = next((str(kern.elements[v]), str(kern.elements[v2]), klle, dom)
                   for v in scan for v2 in scan
                   if (klle := bool(below[comp[v2]] >> comp[v] & 1))
                   != (dom := bool(lower[shape_at[v2]] >> shape_at[v] & 1)))
    report["clauses"]["c_plus_preorder_vs_dominance"] = {
        "ok": bad is None, **({"detail": repr(bad)} if bad else {})}
    report["ok"] = all(c["ok"] for c in report["clauses"].values())
    return report


# --- cell datum ------------------------------------------------------------

class CellDatum(Value):
    """Graham-Lehrer style quadruple, an index over the KL sweep it was
    built from: sbt the standard bitableaux of each shape, shapes sorted;
    C_{S,T} = dagger(C_w) at the kernel position w = w_of[(S, T)]; and
    sweep the (basis, wgraph, coeffs) of _kl_sweep at (n, order)."""

    _fields = ("n", "order", "sbt", "w_of", "sweep")

    def __init__(
            self, n: int, order: XiOrder,
            sbt: dict[Bipartition, list[StandardBitableau]],
            w_of: dict[tuple[StandardBitableau, StandardBitableau], int],
            sweep: tuple):
        self.n = n
        self.order = order
        self.sbt = sbt
        self.w_of = w_of
        self.sweep = sweep


@functools.lru_cache(maxsize=2)
def cell_datum(n: int, order: XiOrder) -> CellDatum:
    """The quadruple ((Bip(n), order r), SBT, C_{S,T} = dagger(C_w), *).

    Cached by (n, order), as the sweep is; it takes no bound, and its
    callers check n against theirs.  Raises ConjectureAViolation, with the
    whole conjecture_a_report, when the insertion fibers do not match the
    KL cells of clauses (a), (b) and (c) (the construction would then be
    ill-defined); (c+) is not needed, and is built only for that report.
    """
    if not all(c["ok"] for c in _cell_clauses(n, order).values()):
        raise ConjectureAViolation(json.dumps(
            conjecture_a_report(n, order, n)))
    w_of = {}
    by_shape: dict[Bipartition, list] = {}
    for v, (s, t, lam) in enumerate(insertion_table(n, order.r)):
        w_of[(s, t)] = v
        # insertion is onto the same-shape pairs, so each S meets (S, S) once
        if s == t:
            by_shape.setdefault(lam, []).append(s)
    sbt = {lam: sorted(by_shape[lam], key=lambda x: (x.first, x.second))
           for lam in sorted(by_shape)}
    return CellDatum(n, order, sbt, w_of, _kl_sweep(n, order))


def _generator_action(datum: CellDatum, i: int, st: tuple) -> dict:
    """T_s C_{S,T} as (S', T') -> coefficient, for generator s of index i
    and st = (S, T), read off the W-graph as structure_coefficients says."""
    kern = kernel(datum.n)
    inverse, table = kern.inverse, insertion_table(datum.n, datum.order.r)
    w = datum.w_of[st]
    sw, g = kern.left[i][w], generator_gamma(i)
    if sw < w:
        return {st: ACoeff._of({-g: -1})}
    _, wgraph, coeffs = datum.sweep
    terms = coeffs.terms
    starts, ys, mus = wgraph[i]
    lo, hi = starts[inverse[w]], starts[inverse[w] + 1]
    out = {st: ACoeff._of({g: 1}), table[sw][:2]: ACoeff._of({0: -1})}
    for y, mu in zip(ys[lo:hi], mus[lo:hi]):
        out[table[inverse[y]][:2]] = ACoeff._of({k: -x for k, x in terms[mu]})
    return out


def _is_action(datum: CellDatum, expanded: list, i: int, st: tuple,
               expansion: dict) -> bool:
    """Whether T_s C_{S,T} = sum c C_{S',T'} over expansion, for generator
    s of index i and st = (S, T); expanded[w] is C_w as _expand gives it.
    dagger is an A-linear involution with dagger(T_s) = v_s - v_s^{-1} -
    T_s, so this holds exactly when (v_s - v_s^{-1} - T_s) C_w = sum c
    C_{w(S',T')}, w = w(S, T), which is compared on one exponent dict per
    kernel position: (v_s - v_s^{-1} - T_s) T_y is -T_{sy}, plus (v_s -
    v_s^{-1}) T_y if sy > y."""
    table = kernel(datum.n).left[i]
    terms = datum.sweep[2].terms
    one, quad = A_ONE.terms.items(), _quad(i).terms.items()
    acc: dict[int, dict[int, int]] = {}
    for y, c in zip(*expanded[datum.w_of[st]]):
        sy = table[y]
        add_product(acc.setdefault(sy, {}), terms[c], one, -1)
        if sy > y:
            add_product(acc.setdefault(y, {}), terms[c], quad)
    for key, c in expansion.items():
        for y, x in zip(*expanded[datum.w_of[key]]):
            add_product(acc.setdefault(y, {}), c.terms.items(), terms[x], -1)
    return not any(any(x.values()) for x in acc.values())


def cellularity_check(n: int, order: XiOrder, bound: int = KL_BOUND) -> dict:
    """Verify the Graham-Lehrer axiom for the C_{S,T} basis.

    For every generator h and pair (S, T): h * C_{S,T} must expand as
    sum_{S'} r(S', S, h) C_{S',T} plus terms of strictly smaller shape,
    with r(S', S, h) independent of T.

    Each T_s C_{S,T} is read off the W-graph (derived in
    structure_coefficients) and multiplied out against the product in the
    algebra, so a wrong or missing mu, or the untwisted formulas, fail.
    star(C_{S,T}) = C_{T,S}, star(T_y) = T_{y^{-1}} A-linearly, is checked
    on the expanded arrays: as l(y^{-1}) = l(y), it says that w(T, S) =
    w(S, T)^{-1} and that C_{w^{-1}} holds each value id of C_w at y^{-1}.
    Each C_w is expanded once, and kept while the check runs.
    """
    check_bound(n, bound)
    datum = cell_datum(n, order)
    r = order.r
    kern = kernel(n)
    inverse = kern.inverse
    basis, _, coeffs = datum.sweep
    expanded = [_expand(kern, coeffs, w, cw) for w, cw in enumerate(basis)]
    index, below = order_table(n, r)
    failures = []
    star_ok = True
    for (s, t), v in datum.w_of.items():
        mirrored = {inverse[y]: c for y, c in zip(*expanded[v])}
        if datum.w_of[(t, s)] != inverse[v] \
                or dict(zip(*expanded[inverse[v]])) != mirrored:
            star_ok = False
            failures.append(f"star(C[{s.to_text()},{t.to_text()}]) != C[T,S]")
    for i in range(n):
        for lam, sbt in datum.sbt.items():
            lower = below[index[lam]]
            for s in sbt:
                maps = []
                for t in sbt:
                    name = f"C[{s.to_text()},{t.to_text()}]"
                    expansion = _generator_action(datum, i, (s, t))
                    if not _is_action(datum, expanded, i, (s, t),
                                      expansion):
                        failures.append(f"gen {i}: T_s {name} is not its "
                                        "W-graph expansion")
                    maps.append({})
                    for (u, vv), c in expansion.items():
                        mu = u.shape
                        if mu == lam and vv == t:
                            maps[-1][u] = c
                        # another shape is allowed only strictly below lam
                        elif mu == lam or not lower >> index[mu] & 1:
                            failures.append(
                                f"gen {i}: {name} -> non-lower term at shape "
                                f"{format_bipartition(mu)} (V==T: {vv == t})")
                if any(m != maps[0] for m in maps[1:]):
                    failures.append(f"gen {i}: coefficients depend on T "
                                    f"for S={s.to_text()}")
    return {"n": n, "xi": str(order.xi), "r": r,
            "star_symmetry": star_ok,
            "ok": not failures, "failures": failures[:20]}


def structure_coefficients(datum: CellDatum, i: int, lam: Bipartition) \
        -> list[list[ACoeff]]:
    """M_s, the matrix of T_s on the cell module of shape lam for generator
    s of index i, read off the W-graph with T fixed to the first bitableau
    T0: rows U and columns S over sbt[lam], entry [U][S] the coefficient
    r(U, S, T_s) of C_{U,T0} in T_s C_{S,T0}, or an ACoeff zero if there is
    none.

    Let C'_w = dagger(C_w) = C_{S,T}, w = w(S, T).  dagger is an A-linear
    involution of the algebra with dagger(T_s) = -T_s^{-1} = -T_s + v_s -
    v_s^{-1}, so T_s C'_w = dagger(-T_s C_w + (v_s - v_s^{-1}) C_w).  On
    the left, T_s C_w = v_s C_w if sw < w, and C_{sw} + sum_y mu^s_{y,w} C_y
    - v_s^{-1} C_w if sw > w (Lusztig, Thm 6.6).  So T_s C'_w is
    -v_s^{-1} C'_w on a left descent and v_s C'_w - C'_{sw} -
    sum_y mu^s_{y,w} C'_y on a left ascent.  star(C_w) = C_{w^{-1}} turns
    C_s C_w into C_{w^{-1}} C_s, so the left mu at (y, w) is the right mu
    of the sweep at (y^{-1}, w^{-1}).
    """
    sbt = datum.sbt[lam]
    t0, at, zero = sbt[0], {s: k for k, s in enumerate(sbt)}, ACoeff()
    out = [[zero for _ in sbt] for _ in sbt]
    for k, s in enumerate(sbt):
        for (u, vv), c in _generator_action(datum, i, (s, t0)).items():
            if u.shape == lam and vv == t0:
                out[at[u]][k] = c
    return out


def gram_form(datum: CellDatum, lam: Bipartition, gens: list) \
        -> list[list[ACoeff]]:
    """The Gram form of the cell module of shape lam, rows S and columns T
    over sbt[lam]; gens[i] is M_s, as structure_coefficients gives it.

    phi(S, T) is defined by C_{T0,S} C_{T,T0} = phi(S, T) C_{T0,T0} modulo
    shapes strictly below (Graham-Lehrer, Cellular algebras, section 2), so
    by the cellular axiom row S is row T0 of the matrix of C_{T0,S} on the
    cell module.  Let C'_x = dagger(C_x) = C_{S,T}, x = w(S, T), and r_x be
    row T0 of its matrix.  dagger is an A-linear algebra automorphism, so
    C_{ws} = C_w C_s - sum_y mu^s_{y,w} C_y at an ascent ws > w (Lusztig,
    Thm 6.6) gives C'_{ws} = C'_w C'_s - sum_y mu^s_{y,w} C'_y, where C'_s =
    dagger(T_s + v_s^{-1}) = v_s - T_s.  So r_1 = e_{T0}, row S is
    r_{w(T0,S)}, and along reduced words (s the last letter of ws)

        r_{ws} = v_s r_w - r_w M_s - sum_y mu^s_{y,w} r_y,

    the mu read off the W-graph at w, each y shorter than w.
    """
    kern = kernel(datum.n)
    _, wgraph, coeffs = datum.sweep
    sbt = datum.sbt[lam]
    # per generator and row U of M_s: its nonzero entries (T, items)
    mats = [[[(t, c.terms.items()) for t, c in enumerate(row) if c.terms]
             for row in g] for g in gens]
    rows = [{0: {0: 1}}]
    for x, i in enumerate(kern.last[1:], 1):
        w = kern.right[i][x]
        starts, ys, mus = wgraph[i]
        acc: dict[int, dict[int, int]] = {}
        for u, c in rows[w].items():
            add_product(acc.setdefault(u, {}), c.items(),
                        ((generator_gamma(i), 1),))
            for t, m in mats[i][u]:
                add_product(acc.setdefault(t, {}), c.items(), m, -1)
        for k in range(starts[w], starts[w + 1]):
            for u, c in rows[ys[k]].items():
                add_product(acc.setdefault(u, {}), coeffs.terms[mus[k]],
                            c.items(), -1)
        rows.append({u: d for u, c in acc.items()
                     if (d := {e: a for e, a in c.items() if a})})
    return [[ACoeff._of(c) if (c := row.get(k)) else ACoeff()
             for k in range(len(sbt))]
            for row in (rows[datum.w_of[(sbt[0], s)]] for s in sbt)]
