"""The generic Hecke algebra of type B and its Kazhdan-Lusztig theory.

Elements are sparse combinations of the standard basis T_w with
coefficients in Z[q^{+-1}, Q^{+-1}]; the parameter of t is Q = e^b and of
each s_i is q = e^a.  A total order on Z^2 (an XiOrder) selects negative
exponents; the Kazhdan-Lusztig element of w is the unique bar-fixed element
congruent to T_w modulo strictly negative coefficients.

One sweep over the ascents ws > w builds every C_{ws} from C_w C_s by
Lusztig's recursion (Hecke algebras with unequal parameters, Thm 6.6) and
keeps the mu it reads off the same products.  It reduces only the positions
z of each product that are extremal for (LD(w), {s}): zs < z, and tz < z for
every left descent t of w.  C_w C_s and every mu C_y it subtracts are
multiplied by v_s under T_s on the right and by v_t under T_t on the left
(Thm 6.6(b)), so their coefficient one step below z on either side, at
zs < z or at tz < z, is v_s^{-1} or v_t^{-1} times the one at z; the other
positions are filled from the extremal ones (du Cloux's extremal pairs,
Experiment. Math. 11, 2002).

The mu and the descent sets are the W-graph of H_n: on the right,
C_w T_s = v_s C_w when ws < w, and C_w T_s = C_{ws} + sum_y mu^s_{y,w} C_y
- v_s^{-1} C_w when ws > w.  It is the one source of both the cells and the
cell-module action.  Cells are the strongly connected components of its
edges w -> {w, ws, y}, of their star image (star(C_w) = C_{w^{-1}}, so a
left mu at (y, w) is the right mu at (y^{-1}, w^{-1})) and of their union;
the conjecture checkers compare them with the fibers of domino insertion.
The cellular datum holds its sweep and reads C_{S,T} = dagger(C_w) off the
packed C_w, and the action of T_s on it off the same W-graph entries, with
no product in the algebra (_generator_action).

Whatever is built from a sweep is cached for two slopes, as the sweep is:
kl_basis and cell_datum keep two entries, cell_datum keyed by (n, order)
alone as the sweep is, and _reach and cells six (two slopes, three sides);
tables keyed by rank and r alone are kept for good.

The hot paths run on the integer kernel of W_n (domino.kernel): products by
a generator are table lookups, the sweep keys its terms by position, and
the preorders are bitsets closed along successor lists, whose cells are
compared with the insertion fibers as bitsets too.  Signed permutations
appear only at the public boundary (HeckeElement, kl_basis, cells, w_of).

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

from . import Value, bits, check_bound
from .combinat import Bipartition, format_bipartition
from .domino import (SignedPermutation, _len_key, group_elements,
                     insertion_table, kernel, reduced_word,
                     StandardBitableau)
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
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=_len_key):
            bits.append(f"({self.terms[w]})*T[{w}]")
        return " + ".join(bits)

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

    def intern(self, terms: dict[int, int]) -> int:
        """The id of the value of terms, zeros dropped; 0 if all cancel."""
        if 0 in terms.values():
            terms = {k: x for k, x in terms.items() if x}
        c = tuple(sorted(terms.items()))
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

    Most of every product is known in advance, on both sides.  On the
    right, X = C_w C_s has X T_s = v_s X, as C_s T_s = v_s C_s, and
    C_y T_s = v_s C_y when ys < y (Thm 6.6(b)).  For such an X, comparing
    the coefficients of X T_s and v_s X at a descent position z (zs < z)
    gives x_{zs} = v_s^{-1} x_z.  mu^s_{y,w} vanishes at an ascent y.
    On the left, let I = LD(w) be the left descents of w.
    - I is in LD(ws): for t in I, tws > ws would give l(tws) = l(w) + 2,
      while tws = (tw)s has length at most l(w).  So T_t X = v_t X, as
      T_t C_w = v_t C_w, and T_t C_{ws} = v_t C_{ws}, for every t in I.
    - So R = X - C_{ws} = sum_y mu^s_{y,w} C_y has T_t R = v_t R.  The
      eigenspace has C-basis {C_y : ty < y}: in T_t R - v_t R the
      coefficient of a C_y with ty > y is -(v_t + v_t^{-1}) mu_y, as T_t C_y
      = C_{ty} + sum_{tz < z} mu C_z - v_t^{-1} C_y there.  So
      mu^s_{y,w} != 0 forces I in LD(y).
    - An h with T_t h = v_t h has h_z = v_t^{-1} h_{tz} whenever tz > z:
      the coefficient of T_t h at z is h_{tz}, as T_t T_{tz} = T_z +
      (v_t - v_t^{-1}) T_{tz} and T_t T_z = T_{tz}.
    So no mu lives off the positions extremal for (I, {s}), where zs < z and
    I is in LD(z), and every other coefficient of X, of each mu C_y and of
    C_{ws} is a shift of an extremal one.  Each term c_y T_y of C_w lands
    once, on a descent position: at ys with c_y on an ascent ys > y, at y
    with v_s c_y on a descent; it is kept only if that position is
    extremal.  The frontier holds extremal positions only, and mu C_y is
    subtracted only at the extremal positions of C_y.  Then every other
    descent position is filled downward by left steps: x_{tx} = v_t^{-1}
    x_x for t in I, tx < x and (tx)s < tx.  That reaches every descent
    position z: if z is not extremal, some t in I has tz > z, and (tz)s <
    tz, since (tz)s > tz would give l(tzs) = l(z) + 2, while tzs = t(zs)
    has length at most l(z); so the upward left steps from z stay on
    descent positions up to an extremal one.  At the end each ascent
    position zs is filled with the coefficient at z shifted by -gamma_s.

    Both checks still see every term of every C_{ws}.  The first build is
    checked, on its position -> id dict before packing, to be T_{ws} plus
    strictly negative terms; every later build along another right descent
    of ws is packed and compared with the first.  So the half for one
    generator is checked against the half for every other, and the left
    fill from one LD(w) against the fill from another, as the builds of
    C_{ws} start from different w.  Ids name values one to one, so equal id
    arrays are equal coefficients.

    Everything is keyed by kernel position, and each coefficient is a value
    id of _Coefficients: the 40,249 terms of the rank-4 basis at r = 1 hold
    1,281 values, of the 1,658 the sweep interns; at rank 5, r = 1, it
    interns 44,763.  A work entry holds the id while a single product term
    lands on its position, becomes an exponent dict of its own when a second
    term or a mu C_y subtraction arrives, and is interned when popped.  Each
    C_w is kept packed as two 4-byte arrays, its positions in increasing
    order and the value id at each.  Returns (basis, wgraph, terms):
    basis[w] is that pair of arrays for C_w, terms[id] the value of an id,
    and wgraph[i] is three 4-byte arrays (starts, ys, mus) for generator i:
    the y with mu^s_{y,w} != 0 and the ids of their mu are ys[k] and mus[k]
    for starts[w] <= k < starts[w + 1], an empty range at a descent of w.
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
    # per t: its left table and the memo of shifts by -gamma_t
    lowering = [(left, shifted[-generator_gamma(t)], -generator_gamma(t))
                for t, left in enumerate(kern.left)]

    def times_c_s(cw: tuple[array, array], i: int, ws: int, lds: int):
        """C_w C_s reduced to C_{ws} as a position -> id dict, and the
        y -> id dict of the mu^s_{y,w} != 0, for lds the left descents of w
        as a bitmask.

        The extremal positions below ws (zs < z, ld[z] containing lds) are
        visited longest first from an ascending frontier popped at its end,
        and a term is final when it is popped: subtracting mu C_y only adds
        terms below y, each inserted once.  The other descent positions are
        filled from them by left steps, and the ascent positions last."""
        g = generator_gamma(i)
        table = kern.right[i]
        up = shifted[g]
        work: dict[int, int | dict[int, int]] = {}
        for y, c in zip(*cw):
            # T_y T_s + v_s^{-1} T_y is T_{ys} + v_s^{-1} T_y on an ascent
            # and T_{ys} + v_s T_y on a descent; keep the descent term, and
            # only where it is extremal
            z = table[y]
            if z > y:
                if ld[z] & lds != lds:
                    continue
                cz = c
            elif ld[y] & lds != lds:
                continue
            else:
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
                    for z, cz in zip(*basis[y]):
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
            if c:
                out[y] = c
        # x_{tx} = v_t^{-1} x_x down every left step t in lds that stays on
        # a descent position; each value is final when set, so any visiting
        # order will do
        steps = [lowering[t] for t in bits(lds)]
        pending = list(out)
        while pending:
            x = pending.pop()
            c = out[x]
            for left, down, h in steps:
                tx = left[x]
                if tx < x and table[tx] < tx and tx not in out:
                    ct = down[c]
                    out[tx] = ct if ct >= 0 else shift(c, h)
                    pending.append(tx)
        down = shifted[-g]
        for z, c in list(out.items()):
            zs = down[c]
            out[table[z]] = zs if zs >= 0 else shift(c, -g)
        return out, mus

    for w in range(size):
        cw = basis[w]
        for i, (starts, ys, mus) in enumerate(wgraph):
            ws = kern.right[i][w]
            if ws < w:
                starts.append(len(ys))
                continue
            c_ws, mu = times_c_s(cw, i, ws, ld[w])
            first = basis[ws] is None
            # the top term, id 1, is the one term with an exponent >= 0
            if first and (c_ws[ws] != 1
                          or sum(map(has_nonneg, c_ws.values())) > 1):
                element = HeckeElement(
                    n, {kern.elements[y]: ACoeff(dict(terms[c]))
                        for y, c in c_ws.items()})
                raise KLRecursionViolation(
                    f"C[{kern.elements[ws]}] = {element} is not "
                    f"T[{kern.elements[ws]}] plus strictly negative "
                    f"terms at xi = {order.xi}")
            positions = sorted(c_ws)
            packed = (array("I", positions),
                      array("I", map(c_ws.__getitem__, positions)))
            if first:
                basis[ws] = packed
            elif basis[ws] != packed:
                raise KLRecursionViolation(
                    f"C[{kern.elements[w]}] C[s{i}] gives a second "
                    f"C[{kern.elements[ws]}] at xi = {order.xi}")
            ys.extend(mu)
            mus.extend(mu.values())
            starts.append(len(ys))
    return basis, wgraph, terms


# Cached as well as the sweep so that cache_info() counts its lookups.
@functools.lru_cache(maxsize=2)
def kl_basis(n: int, order: XiOrder, bound: int = KL_BOUND) \
        -> dict[SignedPermutation, HeckeElement]:
    """The Kazhdan-Lusztig basis C_w for all w in W_n, in _len_key order.

    Each C_w is bar-fixed and congruent to T_w modulo strictly negative
    coefficients.  It is built by Lusztig's recursion C_w C_s = C_{ws} +
    sum mu C_y (Hecke algebras with unequal parameters, Thm 6.6), in one
    sweep per (n, xi) that every bound and the cells share.  Each distinct
    coefficient is one ACoeff that every C_w holding it shares, so it must
    never be changed in place.
    """
    check_bound(n, bound)
    elements = kernel(n).elements
    basis, _, terms = _kl_sweep(n, order)
    wrapped: list[ACoeff | None] = [None] * len(terms)

    def wrap(c: int) -> ACoeff:
        out = wrapped[c]
        if out is None:
            out = wrapped[c] = ACoeff._of(dict(terms[c]))
        return out

    return {elements[w]: HeckeElement(n, {elements[y]: wrap(c)
                                          for y, c in zip(*cw)})
            for w, cw in enumerate(basis)}


def _closure(adjacency: list[int]) -> list[int]:
    """Reflexive-transitive closure of successor bitsets on positions
    0..N-1: each row ORs in the rows of its successors until a pass changes
    nothing.  Rows go from the last position down: most cell-graph edges
    run to a longer element (w -> ws), whose row is then already updated."""
    reach = [a | 1 << v for v, a in enumerate(adjacency)]
    successors = [(v, list(bits(a))) for v, a in enumerate(adjacency)][::-1]
    changed = True
    while changed:
        changed = False
        for v, succ in successors:
            x = reach[v]
            for u in succ:
                x |= reach[u]
            if x != reach[v]:
                reach[v] = x
                changed = True
    return reach


def _scc_partition(reach: list[int]) -> list[list[int]]:
    """Strongly connected components of a reflexive-transitive closure:
    two vertices share one exactly when they reach the same set."""
    classes: dict[int, list[int]] = {}
    for v, x in enumerate(reach):
        classes.setdefault(x, []).append(v)
    return list(classes.values())


def _adjacency(n: int, order: XiOrder, side: str) -> list[int]:
    """Preorder edges as successor bitsets by kernel position: the right
    edges w -> y, y in the C-expansion of some C_w T_s, read off the
    W-graph: w -> w always, and w -> ws and w -> y for each mu^s_{y,w} at an
    ascent ws > w (Lusztig, Thm 6.6); the left ones are their star images,
    as star(C_w) = C_{w^{-1}}; the two-sided ones are the union of both."""
    kern = kernel(n)
    inverse = kern.inverse
    right = [1 << w for w in range(len(inverse))]
    for table, (starts, ys, _) in zip(kern.right, _kl_sweep(n, order)[1]):
        for w, ws in enumerate(table):
            if ws > w:
                right[w] |= sum((1 << y for y in ys[starts[w]:starts[w + 1]]),
                                1 << ws)
    adjacency = [0] * len(right)
    for w, below in enumerate(right):
        if side in ("R", "LR"):
            adjacency[w] |= below
        if side in ("L", "LR"):
            adjacency[inverse[w]] |= sum(1 << inverse[y] for y in bits(below))
    return adjacency


@functools.lru_cache(maxsize=6)
def _reach(n: int, order: XiOrder, side: str) -> list[int]:
    """The closure of _adjacency: y is below w iff bit y of reach[w] is set."""
    return _closure(_adjacency(n, order, side))


@functools.lru_cache(maxsize=6)
def cells(n: int, order: XiOrder, side: str = "LR", bound: int = KL_BOUND) \
        -> list[set[SignedPermutation]]:
    """The left, right or two-sided cells of W_n, for side 'L', 'R' or 'LR'.

    Cells are the strongly connected components of the left, right or
    two-sided multiplication graph of the C-basis (Lusztig, Thm 6.6, via
    the sweep that builds the basis); the preorder itself is _reach.
    """
    if side not in ("L", "R", "LR"):
        raise InvalidArgument(f"side {side!r} must be 'L', 'R' or 'LR'")
    check_bound(n, bound)
    elements = kernel(n).elements
    return [{elements[v] for v in block}
            for block in _scc_partition(_reach(n, order, side))]


def _same_partition(a: list[set], b: list[set]) -> tuple[bool, str | None]:
    """Whether two partitions of the same set agree; if not, name the first
    element in _len_key order whose blocks differ, and both its blocks."""
    def names(block):
        return [str(x) for x in sorted(block, key=_len_key)]

    block_a = {w: block for block in a for w in block}
    block_b = {w: block for block in b for w in block}
    for w in sorted(block_a, key=_len_key):
        if block_a[w] != block_b[w]:
            return False, (f"first differing element {w}: KL block "
                           f"{names(block_a[w])}, fiber {names(block_b[w])}")
    return True, None


def conjecture_a_report(n: int, order: XiOrder, bound: int = KL_BOUND) -> dict:
    """Compare KL cells with insertion fibers (clauses a, b, c, c+)."""
    check_bound(n, bound)
    r = order.r
    kern, table = kernel(n), insertion_table(n, r)
    report = {"n": n, "xi": str(order.xi), "r": r, "clauses": {}}
    # the fibers of S, T and the shape, each block a bitset of positions
    fibers: tuple[dict, dict, dict] = ({}, {}, {})
    for v, entry in enumerate(table):
        for fiber, key in zip(fibers, entry):
            fiber[key] = fiber.get(key, 0) | 1 << v
    for clause, side, fiber in (("a_left_vs_T", "L", fibers[1]),
                                ("b_right_vs_S", "R", fibers[0]),
                                ("c_twosided_vs_shape", "LR", fibers[2])):
        part = _scc_partition(_reach(n, order, side))
        ok, why = set(fiber.values()) == {sum(1 << v for v in block)
                                          for block in part}, None
        if not ok:
            # the elements are named only to locate a mismatch
            ok, why = _same_partition(
                [{kern.elements[v] for v in block} for block in part],
                [{kern.elements[v] for v in bits(x)}
                 for x in fiber.values()])
        report["clauses"][clause] = {"ok": ok, **({"detail": why} if why else {})}
    # (c+): two-sided preorder against ⊴_r on shapes.  Row w2 of the
    # preorder must be the union of the fibers of the shapes below its
    # shape; only a mismatch is located by the pair scan, in group_elements
    # order.
    reach = _reach(n, order, "LR")
    index, below = order_table(n, r)
    shapes, shape_at = list(index), [index[lam] for _, _, lam in table]
    union = [sum(fibers[2][shapes[j]] for j in bits(row))
             for row in below]
    bad = None
    if any(x != union[i] for x, i in zip(reach, shape_at)):
        # the first pair (w, w2) where "w below w2" and dominance disagree
        scan = [kern.index[w] for w in group_elements(n)]
        bad = next((str(kern.elements[v]), str(kern.elements[v2]), klle, dom)
                   for v in scan for v2 in scan
                   if (klle := bool(reach[v2] >> v & 1))
                   != (dom := bool(below[shape_at[v2]] >> shape_at[v] & 1)))
    report["clauses"]["c_plus_preorder_vs_dominance"] = {
        "ok": bad is None, **({"detail": repr(bad)} if bad else {})}
    report["ok"] = all(c["ok"] for c in report["clauses"].values())
    return report


# --- cell datum ------------------------------------------------------------

class CellDatum(Value):
    """Graham-Lehrer style quadruple, an index over the KL sweep it was
    built from: C_{S,T} = dagger(C_w) for w = w_of[(S, T)], read off sweep,
    the (basis, wgraph, terms) of _kl_sweep at (n, order)."""

    _fields = ("n", "order", "r", "shapes", "sbt", "w_of", "sweep")

    def __init__(
            self, n: int, order: XiOrder, r: int, shapes: list[Bipartition],
            sbt: dict[Bipartition, list[StandardBitableau]],
            w_of: dict[tuple[StandardBitableau, StandardBitableau],
                       SignedPermutation],
            sweep: tuple):
        self.n = n
        self.order = order
        self.r = r
        self.shapes = shapes
        self.sbt = sbt
        self.w_of = w_of
        self.sweep = sweep
        # (value id, parity of l(y)) -> (-1)^{l(y)} bar(value), as items
        self._signed_bars: dict[tuple[int, int], tuple] = {}

    def element(self, st: tuple):
        """C_{S,T} for st = (S, T) as (kernel position y, exponent items)
        pairs, y increasing: with C_w = sum_y p_{y,w} T_y, w = w(S, T),
        dagger(C_w) = sum_y (-1)^{l(y)} bar(p_{y,w}) T_y.  bar and dagger
        are both multiplicative and dagger(T_s) = -T_s^{-1} = -bar(T_s), so
        dagger(T_y) = (-1)^{l(y)} bar(T_y) and, dagger being A-linear,
        dagger(C_w) = bar(sum_y (-1)^{l(y)} bar(p_{y,w}) T_y).  dagger
        commutes with bar (on A, and on T_s: both composites give -T_s), so
        dagger(C_w) is bar-invariant with C_w, and the outer bar drops."""
        kern = kernel(self.n)
        basis, _, terms = self.sweep
        length, memo = kern.length, self._signed_bars
        for y, c in zip(*basis[kern.index[self.w_of[st]]]):
            key = (c, length[y] & 1)
            items = memo.get(key)
            if items is None:
                items = memo[key] = tuple((-k, -x if key[1] else x)
                                          for k, x in terms[c])
            yield y, items


@functools.lru_cache(maxsize=2)
def cell_datum(n: int, order: XiOrder) -> CellDatum:
    """The quadruple ((Bip(n), order r), SBT, C_{S,T} = dagger(C_w), *).

    Cached by (n, order), as the sweep is; it takes no bound, and its
    callers check n against theirs.  Raises ConjectureAViolation when
    insertion fibers do not match the KL cells (the construction would
    then be ill-defined).
    """
    report = conjecture_a_report(n, order, n)
    core_clauses = ("a_left_vs_T", "b_right_vs_S", "c_twosided_vs_shape")
    if not all(report["clauses"][c]["ok"] for c in core_clauses):
        raise ConjectureAViolation(json.dumps(report))
    r = order.r
    index, table = kernel(n).index, insertion_table(n, r)
    w_of = {}
    sbt: dict[Bipartition, list] = {}
    for w in group_elements(n):
        s, t, lam = table[index[w]]
        w_of[(s, t)] = w
        if s not in sbt.setdefault(lam, []):
            sbt[lam].append(s)
    for lam in sbt:
        sbt[lam].sort(key=lambda x: (x.first, x.second))
    shape_list = sorted(sbt)
    return CellDatum(n, order, r, shape_list, sbt, w_of, _kl_sweep(n, order))


def _generator_action(datum: CellDatum, i: int, st: tuple) -> dict:
    """T_s C_{S,T} as (S', T') -> coefficient, for generator s of index i
    and st = (S, T), read off the W-graph as structure_coefficients says."""
    kern = kernel(datum.n)
    inverse, table = kern.inverse, insertion_table(datum.n, datum.r)
    w = kern.index[datum.w_of[st]]
    sw, g = kern.left[i][w], generator_gamma(i)
    if sw < w:
        return {st: ACoeff._of({-g: -1})}
    _, wgraph, terms = datum.sweep
    starts, ys, mus = wgraph[i]
    lo, hi = starts[inverse[w]], starts[inverse[w] + 1]
    out = {st: ACoeff._of({g: 1}), table[sw][:2]: ACoeff._of({0: -1})}
    for y, mu in zip(ys[lo:hi], mus[lo:hi]):
        out[table[inverse[y]][:2]] = ACoeff._of({k: -x for k, x in terms[mu]})
    return out


def _is_action(datum: CellDatum, i: int, st: tuple, expansion: dict) -> bool:
    """Whether T_s C_{S,T} = sum c C_{S',T'} over expansion, compared on one
    exponent dict per kernel position, for generator s of index i and
    st = (S, T); T_s T_y is T_{sy}, plus (v_s - v_s^{-1}) T_y if sy < y."""
    table = kernel(datum.n).left[i]
    quad = _quad(i).terms.items()
    acc: dict[int, dict[int, int]] = {}
    for y, x in datum.element(st):
        sy = table[y]
        add_product(acc.setdefault(sy, {}), x, A_ONE.terms.items())
        if sy < y:
            add_product(acc.setdefault(y, {}), x, quad)
    for key, c in expansion.items():
        for y, x in datum.element(key):
            add_product(acc.setdefault(y, {}), c.terms.items(), x, -1)
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
    on the arrays: as l(y^{-1}) = l(y), it says that w(T, S) = w(S, T)^{-1}
    and that C_{w^{-1}} holds each value id of C_w at y^{-1}.
    """
    check_bound(n, bound)
    datum = cell_datum(n, order)
    r = order.r
    kern = kernel(n)
    basis, inverse = datum.sweep[0], kern.inverse
    index, below = order_table(n, r)
    failures = []
    star_ok = True
    for (s, t), w in datum.w_of.items():
        v = kern.index[w]
        mirrored = {inverse[y]: c for y, c in zip(*basis[v])}
        if kern.index[datum.w_of[(t, s)]] != inverse[v] \
                or dict(zip(*basis[inverse[v]])) != mirrored:
            star_ok = False
            failures.append(f"star(C[{s.to_text()},{t.to_text()}]) != C[T,S]")
    for i in range(n):
        for lam in datum.shapes:
            lower = below[index[lam]]
            for s in datum.sbt[lam]:
                maps = []
                for t in datum.sbt[lam]:
                    name = f"C[{s.to_text()},{t.to_text()}]"
                    expansion = _generator_action(datum, i, (s, t))
                    if not _is_action(datum, i, (s, t), expansion):
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
        -> dict[tuple[StandardBitableau, StandardBitableau], ACoeff]:
    """r(S', S, h) for generator i acting on the cell module of shape lam,
    read off the W-graph with T fixed to the first bitableau T0.

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
    t0 = datum.sbt[lam][0]
    out = {}
    for s in datum.sbt[lam]:
        for (u, vv), c in _generator_action(datum, i, (s, t0)).items():
            if u.shape == lam and vv == t0:
                out[(u, s)] = c
    return out
