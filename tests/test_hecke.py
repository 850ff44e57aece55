import functools
import gc
import hashlib
import heapq
import inspect
import json
import random
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

from heckeb import bits, hecke, specht
from heckeb.domino import group_elements, kernel, length, s_t_lambda
from heckeb.errors import (ConjectureAViolation, InvalidArgument,
                           IrrationalityViolation,
                           KLRecursionViolation)
from heckeb.hecke import (CellDatum, HeckeElement, _len_key, _same_partition,
                          bar, cell_datum, cells, cellularity_check,
                          conjecture_a_report, kl_basis)
from heckeb.laurent import ACoeff, XiOrder, add_product, pack
from heckeb.orders import dominance_r, order_table

from back_substitution import (cellular_basis, dagger_bar_fixed,
                               expand_in_cellular, expand_in_kl)
from oracles import antisymmetric_solution, generator, is_strictly_negative

ORDER0 = XiOrder.for_r(0)
OFFSETS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))


@functools.lru_cache(maxsize=None)
def dagger_table(n):
    """dagger(T_w) by kernel position, dagger(T_s) = -T_s^{-1} =
    -T_s + (v_s - v_s^{-1})."""
    return kernel(n).along_words(
        HeckeElement.unit(n),
        lambda x, i: x.scale(hecke._quad(i)) - x.mul_gen(i))


def dagger(h):
    """The A-algebra involution with T_s -> -T_s^{-1}, by its definition:
    the reference for the closed form dagger_bar_fixed."""
    return hecke._image(h, dagger_table(h.n), lambda c: c)


def star(h):
    """The A-linear anti-automorphism T_w -> T_{w^{-1}}."""
    kern = kernel(h.n)
    return HeckeElement(h.n, {kern.elements[kern.inverse[kern.index[w]]]: c
                              for w, c in h.terms.items()})


def bar_solve_kl_basis(n, order):
    """Reference C-basis: make T_w bar-fixed by correcting the top defect
    term at a time, then push the off-diagonal coefficients into A_{<0}."""
    basis = {}
    for w in sorted(group_elements(n), key=_len_key):
        x = HeckeElement.t_basis(w)
        defect = bar(x) - x
        while not defect.is_zero():
            y = max(defect.terms, key=_len_key)
            corr = antisymmetric_solution(order, defect.terms[y])
            x = x + basis[y].scale(corr)
            defect = defect + basis[y].scale(corr.bar() - corr)
            assert y not in defect.terms
        for y in sorted(x.terms, key=_len_key, reverse=True):
            if y != w:
                beta = order.symmetric_completion(x.coeff(y))
                if not beta.is_zero():
                    x = x - basis[y].scale(beta)
        basis[w] = x
    return basis


def full_sweep(n, order):
    """Reference sweep: Lusztig's recursion reducing every term of C_w C_s,
    at ascent and descent positions alike, on plain exponent dicts through
    a heap.  Returns (basis, wgraph) as sweep_coefficients gives them."""
    kern = kernel(n)
    size = len(kern.elements)
    basis = [None] * size
    basis[0] = {0: {0: 1}}
    wgraph = {}

    def nonzero(c):
        return {k: x for k, x in c.items() if x}

    def times_c_s(cw, i, ws):
        g = hecke.generator_gamma(i)
        table = kern.right[i]
        work = {}
        for y, c in cw.items():
            h = -g if table[y] > y else g
            shifted = {k + h: x for k, x in c.items()}
            for z, cz in ((table[y], c), (y, shifted)):
                add_product(work.setdefault(z, {}), cz.items(), ((0, 1),))
        heap = [-y for y in work if y != ws]
        heapq.heapify(heap)
        out = {ws: nonzero(work[ws])}
        mus = {}
        while heap:
            y = -heapq.heappop(heap)
            c = nonzero(work[y])
            if table[y] < y and any(order.sign(k) >= 0 for k in c):
                mu = order.symmetric_completion(ACoeff(c)).terms
                if mu:
                    mus[y] = tuple(sorted(mu.items()))
                    for z, cz in basis[y].items():
                        if z not in work:
                            work[z] = {}
                            heapq.heappush(heap, -z)
                        add_product(work[z], mu.items(), cz.items(), -1)
                    c = nonzero(work[y])
            if c:
                out[y] = c
        return out, mus

    for w in range(size):
        for i in range(n):
            ws = kern.right[i][w]
            if ws < w:
                continue
            c_ws, wgraph[w, i] = times_c_s(basis[w], i, ws)
            assert basis[ws] in (None, c_ws)
            basis[ws] = c_ws
    return ({w: {y: tuple(sorted(c.items())) for y, c in cw.items()}
             for w, cw in enumerate(basis)}, wgraph)


def sweep_coefficients(n, order):
    """hecke._kl_sweep with its layout undone: ({w: {y: terms}},
    {(w, i): {y: terms}}), terms the (key, coefficient) pairs of the
    coefficient of T_y in C_w, or of mu^s_{y,w} at each ascent (w, s), s of
    index i, sorted by key.  Each C_w is expanded from its stored terms."""
    basis, wgraph, coeffs = hecke._kl_sweep(n, order)
    kern, terms = kernel(n), coeffs.terms
    out = {}
    for i, (starts, ys, mus) in enumerate(wgraph):
        for w, ws in enumerate(kern.right[i]):
            if ws > w:
                lo, hi = starts[w], starts[w + 1]
                out[w, i] = {y: terms[mu]
                             for y, mu in zip(ys[lo:hi], mus[lo:hi])}
            else:
                assert starts[w] == starts[w + 1]
    return ({w: {y: terms[c] for y, c in zip(*hecke._expand(
                 kern, coeffs, w, cw))}
             for w, cw in enumerate(basis)}, out)


def warshall_closure(adjacency):
    """Reference reflexive-transitive closure of successor bitsets:
    Warshall's algorithm on bitset rows."""
    reach = [a | 1 << v for v, a in enumerate(adjacency)]
    for k in range(len(reach)):
        bit, row = 1 << k, reach[k]
        reach = [x | row if x & bit else x for x in reach]
    return reach


def w0_duality_violations(n, reach):
    """The positions w where y <= w <=> w w0 <= y w0 fails for some y,
    the preorder given by reachability bitsets.  Multiplication by w0
    reverses each of <=_L, <=_R and <=_LR (Lusztig, Hecke algebras with
    unequal parameters, ch. 11)."""
    kern = kernel(n)
    w0 = kern.elements[-1]
    dual = [kern.index[w * w0] for w in kern.elements]
    above = [0] * len(reach)
    for w, row in enumerate(reach):
        for y in bits(row):
            above[y] |= 1 << w
    # {y w0 : y <= w} must be {z : w w0 <= z}
    return [w for w, row in enumerate(reach)
            if sum(1 << dual[y] for y in bits(row)) != above[dual[w]]]


def component_rows(comp, below):
    """The reachability bitsets by position of a _components result: bit y
    of row w is set iff bit comp[y] of below[comp[w]] is."""
    members = [0] * len(below)
    for v, c in enumerate(comp):
        members[c] |= 1 << v
    closed = [sum(members[d] for d in bits(x)) for x in below]
    return [closed[c] for c in comp]


def dfs_closure(adjacency):
    """Reference reflexive-transitive closure: a DFS from each vertex."""
    reach = {}
    for v in adjacency:
        seen = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for x in adjacency[u]:
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        reach[v] = seen
    return reach


def product_reach(n, order, side):
    """Reference preorder: w -> y for every y in the C-expansion of a
    product of C_w with a generator on the given side(s)."""
    basis = kl_basis(n, order)
    adjacency = {}
    for w, cw in basis.items():
        prods = []
        if side in ("L", "LR"):
            prods.extend(cw.mul_gen(i, left=True) for i in range(n))
        if side in ("R", "LR"):
            prods.extend(cw.mul_gen(i) for i in range(n))
        adjacency[w] = {y for prod in prods for y in expand_in_kl(prod, basis)}
    return dfs_closure(adjacency)


def pair_scan_c_plus(n, order, dominance, reach=None):
    """Reference (c+) clause: the first pair (w, w2), in group_elements
    order, where w below w2 in the two-sided preorder reach (w -> the set
    below w, product_reach by default) and the dominance of their shapes
    disagree."""
    r = order.r
    if reach is None:
        reach = product_reach(n, order, "LR")
    shape_of = {w: s_t_lambda(w, r)[2] for w in group_elements(n)}
    shapes = list(dict.fromkeys(shape_of.values()))
    dominated = {(a, b): dominance(a, b, r) for a in shapes for b in shapes}
    for w, lw in shape_of.items():
        for w2, lw2 in shape_of.items():
            klle = w in reach[w2]
            domle = dominated[lw, lw2]
            if klle != domle:
                return {"ok": False, "detail": repr((str(w), str(w2), klle,
                                                     domle))}
    return {"ok": True}


def equality_table(n, r):
    """order_table with equality for the order: each row its own bit."""
    index, _ = order_table(n, r)
    return index, tuple(1 << i for i in range(len(index)))


def T(w):
    return HeckeElement.t_basis(w)


def unit(n):
    return HeckeElement.unit(n)


def gens(n):
    return [generator(n, i) for i in range(n)]


class TestAlgebra:
    def test_quadratic_relations(self):
        n = 2
        t, s1 = gens(n)
        # (T_t - Q)(T_t + Q^-1) = 0 and (T_s - q)(T_s + q^-1) = 0
        assert T(t) * T(t) == unit(n) + \
            T(t).scale(ACoeff({pack(0, 1): 1, pack(0, -1): -1}))
        assert T(s1) * T(s1) == unit(n) + \
            T(s1).scale(ACoeff({pack(1, 0): 1, pack(-1, 0): -1}))

    def test_braid_relations(self):
        n = 3
        t, s1, s2 = gens(n)
        assert T(t) * T(s1) * T(t) * T(s1) == T(s1) * T(t) * T(s1) * T(t)
        assert T(s1) * T(s2) * T(s1) == T(s2) * T(s1) * T(s2)
        assert T(t) * T(s2) == T(s2) * T(t)

    def test_length_additivity(self):
        for w1 in group_elements(2):
            for w2 in group_elements(2):
                prod = T(w1) * T(w2)
                if length(w1 * w2) == length(w1) + length(w2):
                    assert prod == T(w1 * w2)


class TestInvolutions:
    def test_bar_anchor(self):
        n = 2
        t = gens(n)[0]
        assert bar(T(t)) == T(t) + \
            unit(n).scale(ACoeff({pack(0, 1): -1, pack(0, -1): 1}))

    def test_dagger_anchor(self):
        n = 2
        t = gens(n)[0]
        # dagger(T_t) = -T_t + (Q - Q^-1)
        assert dagger(T(t)) == T(t).scale(ACoeff.integer(-1)) + \
            unit(n).scale(ACoeff({pack(0, 1): 1, pack(0, -1): -1}))

    def test_all_involutive_and_multiplicative(self):
        n = 2
        ws = list(group_elements(n))
        for w1 in ws:
            for w2 in ws:
                h, k = T(w1), T(w2)
                assert bar(bar(h)) == h
                assert dagger(dagger(h)) == h
                assert star(star(h)) == h
                assert bar(h * k) == bar(h) * bar(k)
                assert dagger(h * k) == dagger(h) * dagger(k)
                assert star(h * k) == star(k) * star(h)


class TestKLBasis:
    def test_rank_one_anchors(self):
        n = 2
        t, s1 = gens(n)
        basis = kl_basis(n, ORDER0)
        assert basis[t] == T(t) + unit(n).scale(ACoeff({pack(0, -1): 1}))
        assert basis[s1] == T(s1) + unit(n).scale(ACoeff({pack(-1, 0): 1}))

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_defining_properties(self, r):
        # bar-fixed, leading coefficient 1, off-diagonals strictly negative
        order = XiOrder.for_r(r)
        for n in (1, 2, 3):
            basis = kl_basis(n, order)
            for w, cw in basis.items():
                assert bar(cw) == cw
                assert cw.coeff(w) == ACoeff.integer(1)
                for y, c in cw.terms.items():
                    if y != w:
                        assert length(y) < length(w)
                        assert is_strictly_negative(order, c)

    def test_expand_in_kl(self):
        basis = kl_basis(2, ORDER0)
        for w in group_elements(2):
            exp = expand_in_kl(T(w), basis)
            back = HeckeElement(2)
            for y, c in exp.items():
                back = back + basis[y].scale(c)
            assert back == T(w)

    def test_xi_robustness(self):
        # same basis and cells for any slope with the same integer part
        for r in (0, 1):
            orders = [XiOrder(Fraction(r) + off)
                      for off in (Fraction(1, 3), Fraction(1, 2),
                                  Fraction(2, 3))]
            for n in (1, 2, 3):
                ref = kl_basis(n, orders[0])
                for o in orders[1:]:
                    assert kl_basis(n, o) == ref
                ref_cells = cells(n, orders[0], "LR")
                for o in orders[1:]:
                    assert {frozenset(c) for c in cells(n, o, "LR")} == \
                        {frozenset(c) for c in ref_cells}


@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("r", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
class TestAgainstOracles:
    def test_basis_matches_bar_solve(self, n, r, offset):
        order = XiOrder(Fraction(r) + offset)
        basis = kl_basis(n, order)
        assert basis == bar_solve_kl_basis(n, order)
        assert list(basis) == sorted(basis, key=_len_key)

    def test_reach_matches_products(self, n, r, offset):
        order = XiOrder(Fraction(r) + offset)
        elements = kernel(n).elements
        for side in ("L", "R", "LR"):
            comp, below = hecke._cells(n, order)[side]
            reach = {elements[w]: {elements[y] for y, cy in enumerate(comp)
                                   if below[cw] >> cy & 1}
                     for w, cw in enumerate(comp)}
            assert reach == product_reach(n, order, side)

    def test_sweep_matches_full_sweep(self, n, r, offset):
        order = XiOrder(Fraction(r) + offset)
        assert sweep_coefficients(n, order) == full_sweep(n, order)

    def test_star_symmetry(self, n, r, offset):
        basis = kl_basis(n, XiOrder(Fraction(r) + offset))
        for w, cw in basis.items():
            assert star(cw) == basis[w.inverse()]


class _NoCompletion(XiOrder):
    """An order whose completion never corrects anything."""

    def symmetric_completion(self, c):
        return ACoeff()


def test_sweep_rejects_non_kl_elements():
    with pytest.raises(KLRecursionViolation):
        kl_basis(3, _NoCompletion(Fraction(1, 2)))


def test_sweep_raises_on_a_tie():
    # xi = 1/2 is a wall at rank 4: the sweep meets an exponent (a, b) with
    # a + b/2 = 0, and the memo of signs must not hide it
    with pytest.raises(IrrationalityViolation) as info:
        kl_basis(4, XiOrder(Fraction(1, 2)))
    assert "_kl_sweep" in [entry.name for entry in info.traceback]


# One slope in each of the six rank-4 chambers: 3/4 in (1/2, 1), 102/101 in
# (1, 3/2), then (0, 1/2), (3/2, 2), (2, 3) and (3, inf).
@pytest.mark.parametrize("xi", [Fraction(3, 4), XiOrder.for_r(1).xi,
                                Fraction(1, 4), Fraction(7, 4),
                                Fraction(5, 2), Fraction(7, 2)])
def test_rank4_sweep_matches_full_sweep(xi):
    order = XiOrder(xi)
    assert sweep_coefficients(4, order) == full_sweep(4, order)


@pytest.mark.parametrize("r", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_left_descents_of_the_oracle(n, r):
    # T_t C_w = v_t C_w for each left descent t of w (Lusztig, Hecke
    # algebras with unequal parameters, Thm 6.6(b)), checked on the
    # reference sweep: every mu^s_{y,w} has LD(w) in LD(y), and every C_w
    # has p_z = v_t^{-1} p_{tz} for t in LD(w) and tz > z
    kern = kernel(n)
    basis, wgraph = full_sweep(n, XiOrder.for_r(r))

    def ld(z):
        return {t for t, left in enumerate(kern.left) if left[z] < z}

    for (w, _), mus in wgraph.items():
        assert all(ld(w) <= ld(y) for y in mus)
    for w, cw in basis.items():
        for t in ld(w):
            g, left = hecke.generator_gamma(t), kern.left[t]
            for z, tz in enumerate(left):
                if tz > z:
                    assert cw.get(z, ()) == tuple(
                        (k - g, x) for k, x in cw.get(tz, ()))


# SHA-256 of the rank-4 basis as perfbench prints it (C[w] = ... lines in
# _len_key order), captured before the sweep shared its coefficients; the
# bar-solve oracle above reaches only n <= 3.
RANK4_BASIS_SHA256 = {
    0: "896a920c4e6bcdcd5f860053346632e80eab35f072ae109b7c570e075d356432",
    1: "9f7c10dbcb7d98b479f2ddd12d60b253bb4edb57be6701fb1bef4b9a512c3a98",
    2: "10547564c61051a7481608802cc5eea2d76281d6c568f14b13c102b3bf4d7ff1",
    3: "794ef51cb068e8cfe90c22cbb8ee57d887980cadb2a7760e50082db515fe5d95",
}
# The same digest at xi = 3/4 and 7/4, across the walls at 1/2 and 3/2 from
# the slopes above, where the rank-4 basis differs from theirs; captured
# before the sweep reduced only the descent half of each product.
RANK4_CHAMBER_SHA256 = {
    Fraction(3, 4):
        "d78eb787c825e8175fcf1df95d77f162197a6e203256235b00cc08c510231a03",
    Fraction(7, 4):
        "2510f0f30cd1ae03864618a3027880f08791b0d8bf448bf4e7df545fb28f6b70",
}


# SHA-256 of the rank-4 W-graph: one line "i w y mu" per mu^s_{y,w} != 0,
# s of index i, w in kernel order, then i, then y as the W-graph lists it;
# captured before the sweep kept its expansions of the mu targets C_y.
RANK4_WGRAPH_SHA256 = {
    0: "04ac98b7fa86c844fdc0f38b09d813a2adde2b06f4b14189022bcf99969bcd79",
    1: "cc2fa462bf2b0ee867f9c241e806930d33850848eb2eb00f5833b2e7096e046d",
    2: "b1130bfb4a75ee5b1ace31138cc7b96fef2dfb459b818d4a619c26142554083b",
    3: "e277990b678a14048a2666937adebca039f4d6448a69340c0249f618bbfbfbe8",
}


def basis_digest(order):
    basis = kl_basis(4, order)
    h = hashlib.sha256()
    for w in sorted(basis, key=_len_key):
        h.update(f"C[{w}] = {basis[w]}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("r", sorted(RANK4_BASIS_SHA256))
def test_rank4_basis_digest(r):
    assert basis_digest(XiOrder.for_r(r)) == RANK4_BASIS_SHA256[r]


@pytest.mark.parametrize("r", sorted(RANK4_WGRAPH_SHA256))
def test_rank4_wgraph_digest(r):
    _, wgraph, coeffs = hecke._kl_sweep(4, XiOrder.for_r(r))
    elements = kernel(4).elements
    h = hashlib.sha256()
    for w, x in enumerate(elements):
        for i, (starts, ys, mus) in enumerate(wgraph):
            for k in range(starts[w], starts[w + 1]):
                mu = ACoeff(dict(coeffs.terms[mus[k]]))
                h.update(f"{i} {x} {elements[ys[k]]} {mu}\n".encode())
    assert h.hexdigest() == RANK4_WGRAPH_SHA256[r]


@pytest.mark.parametrize("xi", sorted(RANK4_CHAMBER_SHA256))
def test_rank4_chamber_digest(xi):
    assert basis_digest(XiOrder(xi)) == RANK4_CHAMBER_SHA256[xi]


def test_sweep_shares_each_coefficient():
    # one value id per distinct coefficient value in the sweep, and one
    # ACoeff per id in kl_basis; the sweep stores 7,884 of the 40,249
    # terms, those at the left-extremal positions
    order = XiOrder.for_r(1)
    basis, _, coeffs = hecke._kl_sweep(4, order)
    terms = coeffs.terms
    held = [c for _, values in basis for c in values]
    assert len(held) == 7884
    assert len(set(terms)) == len(terms)
    assert len({terms[c] for c in held}) == len(set(held)) < 2000
    expanded = [c for w, cw in enumerate(basis)
                for c in hecke._expand(kernel(4), coeffs, w, cw)[1]]
    wrapped = [c for cw in kl_basis(4, order).values()
               for c in cw.terms.values()]
    assert len(wrapped) == len(expanded) == 40249
    assert len({id(c) for c in wrapped}) == len(set(wrapped)) \
        == len(set(expanded))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sweep_layout(n):
    # each C_w is two 4-byte arrays of one length, positions increasing;
    # the W-graph is three per generator, its starts running over |W_n| + 1
    basis, wgraph, _ = hecke._kl_sweep(n, XiOrder.for_r(1))
    assert len(basis) == len(kernel(n).elements)
    for positions, values in basis:
        assert positions.typecode == values.typecode == "I"
        assert positions.itemsize == 4
        assert len(positions) == len(values)
        assert all(a < b for a, b in zip(positions, positions[1:]))
    assert len(wgraph) == n
    for starts, ys, mus in wgraph:
        assert starts.typecode == ys.typecode == mus.typecode == "I"
        assert len(starts) == len(basis) + 1 and starts[0] == 0
        assert starts[-1] == len(ys) == len(mus)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sweep_stores_the_left_extremal_terms(n):
    # C_w is stored exactly at the y of its support with LD(w) in LD(y),
    # the support taken from the reference sweep
    kern, order = kernel(n), XiOrder.for_r(1)
    full = full_sweep(n, order)[0]

    def ld(z):
        return {t for t, left in enumerate(kern.left) if left[z] < z}

    for w, (positions, _) in enumerate(hecke._kl_sweep(n, order)[0]):
        assert list(positions) == sorted(y for y in full[w]
                                         if ld(w) <= ld(y))


def mutated_kl_sweep(old, new):
    """hecke._kl_sweep, uncached, with the one occurrence of old in its
    source replaced by new, compiled in the module's namespace."""
    source = textwrap.dedent(inspect.getsource(hecke._kl_sweep.__wrapped__))
    assert source.count(old) == 1, old
    namespace = dict(vars(hecke))
    exec(compile(source.replace(old, new), hecke.__file__, "exec"),
         namespace)
    return namespace["_kl_sweep"].__wrapped__


# Mutants of the sweep, each (old, new, start of the message it must raise):
# a later build of C_{ws} with its last stored entry changed; every value
# computed off the store shifted by gamma_s; and the partner rule with v_t
# for a t of the other class than s (t = y s y^{-1} is conjugate to s); and
# the sweep's expansions of the mu targets keyed by LD(y) instead of y.
SWEEP_MUTANTS = {
    "second_build": (
        "elif basis[ws] != packed:",
        "elif basis[ws] != (packed[0], packed[1][:-1]"
        " + array('I', [packed[1][-1] + 1])):",
        "gives a second C["),
    "off_store": (
        "            out[y] = c\n",
        "            out[y] = c if ld[y] & ld[ws] == ld[ws]"
        " else shift(c, g)\n",
        "a term at"),
    "partner_t": (
        "work[y] = shift(c, -g)",
        "work[y] = shift(c, g - GAMMA_S - GAMMA_T)",
        ""),
    "stale_expansion": (
        "expanded.get(y)) is None:\n"
        "                        cy = expanded[y] =",
        "expanded.get(ld[y])) is None:\n"
        "                        cy = expanded[ld[y]] =",
        "plus strictly negative terms"),
}


@pytest.mark.parametrize("mutant", sorted(SWEEP_MUTANTS))
def test_mutated_sweep_raises(mutant):
    old, new, message = SWEEP_MUTANTS[mutant]
    sweep = mutated_kl_sweep(old, new)
    with pytest.raises(KLRecursionViolation) as info:
        sweep(3, XiOrder.for_r(1))
    assert message in str(info.value)


def test_unmutated_sweep_source_compiles_to_the_sweep():
    # the mutants' harness with no mutation gives the sweep itself
    sweep = mutated_kl_sweep("return basis, wgraph, coeffs",
                             "return basis, wgraph, coeffs")
    basis, wgraph, coeffs = sweep(3, XiOrder.for_r(1))
    cached = hecke._kl_sweep(3, XiOrder.for_r(1))
    assert basis == cached[0] and wgraph == cached[1]
    # readers of the cached sweep may have appended values since
    assert cached[2].terms[:len(coeffs.terms)] == coeffs.terms


def counted_expansions(monkeypatch):
    """The list of the w of every later call of hecke._expand."""
    expanded = []
    expand = hecke._expand

    def counted(kern, coeffs, w, stored):
        expanded.append(w)
        return expand(kern, coeffs, w, stored)

    monkeypatch.setattr(hecke, "_expand", counted)
    return expanded


def test_sweep_expands_each_mu_target_once(monkeypatch):
    # a mu C_y with LD(y) != LD(w) is subtracted from the expansion of
    # C_y, made once per sweep: at rank 4, r = 1 the mu reach 102 such y,
    # 280 times in all
    expanded = counted_expansions(monkeypatch)
    _, _, coeffs = hecke._kl_sweep.__wrapped__(4, XiOrder.for_r(1))
    assert len(expanded) == len(set(expanded)) == 102
    assert len(coeffs.terms) == 1225


def test_sweep_retained_memory():
    # the rank-4 sweep at r = 1 stores 7,884 of the 40,249 terms and
    # retains about 0.7 MB; with every term packed it retained 1.1 MB, and
    # with a dict of interned tuples per C_w 2.1 MB
    order = XiOrder.for_r(1)
    kernel(4)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sweep = hecke._kl_sweep.__wrapped__(4, order)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(sweep[0]) == 384
    assert retained < 1.5e6


def test_sweep_cache_is_bounded():
    # the cache keeps the last two sweeps, as _cells does; the cells of a
    # kept slope at another bound are read off _cells without a new sweep
    orders = [XiOrder(r + Fraction(1, 5)) for r in range(3)]
    misses = hecke._kl_sweep.cache_info().misses
    for order in orders:
        cells(3, order)
    info = hecke._kl_sweep.cache_info()
    assert info.currsize == 2
    assert info.misses == misses + 3
    reached = hecke._cells.cache_info().hits
    assert cells(3, orders[2], "LR", 3) == cells(3, orders[2])
    assert hecke._kl_sweep.cache_info().misses == misses + 3
    assert hecke._cells.cache_info().hits == reached + 1


def test_one_preorder_pass_per_slope():
    # the report, the datum and the cells of every side share one pass
    # over the W-graph
    for cached in (hecke._cells, hecke.cells, hecke.cell_datum):
        cached.cache_clear()
    order = XiOrder.for_r(1)
    assert conjecture_a_report(3, order)["ok"]
    cell_datum(3, order)
    for side in ("L", "R", "LR"):
        cells(3, order, side)
    assert hecke._cells.cache_info().misses == 1


# Successor lists of small graphs, with their components and the order
# on them by hand: (succ, comp, below), the components numbered as they
# close.
HAND_GRAPHS = {
    "empty": ([], [], []),
    "self-loop": ([[0]], [0], [0b1]),
    "2-cycle": ([[1], [0]], [0, 0], [0b1]),
    "chain": ([[1], [2], []], [2, 1, 0], [0b001, 0b011, 0b111]),
    "two-sccs": ([[1], [0, 2], [3], [2]], [1, 1, 0, 0], [0b01, 0b11]),
}
CHAMBERS = [XiOrder.for_r(r) for r in range(4)] + [
    XiOrder(Fraction(3, 4)), XiOrder(Fraction(7, 4))]


def preorder_edges(n, order):
    """The successor lists _cells passes to _components, by side: _cells
    run uncached with _components swapped for one that returns them."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hecke, "_components", lambda succ: succ)
        return hecke._cells.__wrapped__(n, order)


def as_bitsets(succ):
    """Successor lists as bitsets, repeated successors once."""
    return [sum(1 << u for u in set(row)) for row in succ]


def assert_components(succ, comp, below):
    """comp and below against Warshall's closure of succ: two vertices
    share a label iff each reaches the other, below is reachability on
    labels, and every edge runs to a label no higher."""
    reach = warshall_closure(as_bitsets(succ))
    assert component_rows(comp, below) == reach
    mutual = [{u for u in bits(row) if reach[u] >> v & 1}
              for v, row in enumerate(reach)]
    assert [{u for u, c in enumerate(comp) if c == comp[v]}
            for v in range(len(comp))] == mutual
    assert sorted(set(comp)) == list(range(len(below)))
    assert all(comp[u] <= comp[v] for v, row in enumerate(succ) for u in row)


def xi_id(order):
    return f"xi{order.xi.numerator}_{order.xi.denominator}"


class TestClosure:
    """_components, the cells and the order on them, against closures."""

    @pytest.mark.parametrize("name", sorted(HAND_GRAPHS))
    def test_hand_graphs(self, name):
        succ, comp, below = HAND_GRAPHS[name]
        assert hecke._components(succ) == (comp, below)
        assert_components(succ, comp, below)

    @pytest.mark.parametrize("order", CHAMBERS, ids=xi_id)
    def test_rank4_matches_warshall(self, order):
        edges = preorder_edges(4, order)
        for side in ("L", "R", "LR"):
            comp, below = hecke._cells(4, order)[side]
            reach = warshall_closure(as_bitsets(edges[side]))
            # the SCCs grouped from the closure rows, in order of first
            # element, are the cells
            blocks = {}
            for v, row in enumerate(reach):
                blocks.setdefault(row, []).append(v)
            assert cells(4, order, side) == [
                {kernel(4).elements[v] for v in block}
                for block in blocks.values()]
            assert_components(edges[side], comp, below)

    @pytest.mark.parametrize("order", CHAMBERS, ids=xi_id)
    def test_w0_duality(self, order):
        for n in (1, 2, 3, 4):
            for side in ("L", "R", "LR"):
                assert w0_duality_violations(n, component_rows(
                    *hecke._cells(n, order)[side])) == []

    @pytest.mark.parametrize("side", ["L", "R", "LR"])
    def test_w0_duality_catches_a_reversed_edge(self, side):
        order = XiOrder.for_r(1)
        succ = [list(row) for row in preorder_edges(3, order)[side]]
        comp = hecke._cells(3, order)[side][0]
        # the first edge u -> v between two different cells
        u, v = next((u, v) for u, row in enumerate(succ) for v in row
                    if comp[u] != comp[v])
        succ[u] = [x for x in succ[u] if x != v]
        succ[v].append(u)
        assert w0_duality_violations(
            3, component_rows(*hecke._components(succ)))

    @pytest.mark.parametrize("seed", range(40))
    def test_random_graphs_match_warshall(self, seed):
        rng = random.Random(seed)
        size = rng.randint(0, 30)
        density = rng.choice([0.02, 0.05, 0.1, 0.3])
        succ = [[u for u in range(size) if rng.random() < density]
                for _ in range(size)]
        assert_components(succ, *hecke._components(succ))

    @pytest.mark.parametrize("cycle", [False, True], ids=["path", "cycle"])
    def test_long_graphs_need_no_recursion(self, cycle):
        size = 5000
        succ = [[v + 1] for v in range(size - 1)] + [[0] if cycle else []]
        comp, below = hecke._components(succ)
        if cycle:
            assert (comp, below) == ([0] * size, [1])
        else:
            assert comp == list(range(size - 1, -1, -1))
            assert below == [(1 << c + 1) - 1 for c in range(size)]


class TestCells:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_conjecture_a(self, n, r):
        report = conjecture_a_report(n, XiOrder.for_r(r))
        assert report["ok"], report

    def test_conjecture_a_inf_proxy(self):
        for n in (1, 2, 3):
            report = conjecture_a_report(n, XiOrder.for_r(max(n - 1, 0)))
            assert report["ok"], report

    def test_same_partition_names_both_blocks(self):
        ws = sorted(group_elements(2), key=_len_key)
        a = [0, 0] + [1] * (len(ws) - 2)
        assert _same_partition(ws, a, ["x", "x"] + ["y"] * (len(ws) - 2)) \
            == (True, None)
        ok, detail = _same_partition(ws, a, [0] + [1] * (len(ws) - 1))
        assert not ok
        assert detail == (
            f"first differing element {ws[0]}: "
            f"KL block {[str(ws[0]), str(ws[1])]}, fiber {[str(ws[0])]}")

    @pytest.mark.parametrize("dominance", [
        (order_table, dominance_r),
        (equality_table, lambda a, b, r: a == b)],
        ids=["dominance", "equality"])
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_c_plus_matches_pair_scan(self, n, r, dominance, monkeypatch):
        # (c+) reads the order on shapes from its table.  The equality
        # order makes (c+) fail, so the detail of the fallback scan is
        # compared as well.
        table, dominance = dominance
        monkeypatch.setattr(hecke, "order_table", table)
        order = XiOrder.for_r(r)
        report = conjecture_a_report(n, order)
        clauses = dict(report["clauses"])
        clauses["c_plus_preorder_vs_dominance"] = pair_scan_c_plus(
            n, order, dominance)
        expected = {**report, "clauses": clauses,
                    "ok": all(c["ok"] for c in clauses.values())}
        assert report == expected
        if dominance is not dominance_r and n > 1:
            assert not report["ok"]

    def test_bad_side_raises(self):
        with pytest.raises(InvalidArgument):
            cells(2, ORDER0, "X")

    def test_bad_side_raises_under_optimize(self):
        code = ("from heckeb.errors import InvalidArgument\n"
                "from heckeb.hecke import cells\n"
                "from heckeb.laurent import XiOrder\n"
                "try:\n"
                "    cells(2, XiOrder.for_r(0), 'X')\n"
                "except InvalidArgument:\n"
                "    print('raised')\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-O", "-c", code],
                              env={"PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=120)
        assert done.stdout == "raised\n", done.stderr

    def test_cell_count_consistency(self):
        # two-sided cells refine into left cells
        left = cells(2, ORDER0, "L")
        lr = cells(2, ORDER0, "LR")
        for block in left:
            assert any(block <= c for c in lr)


def merged_cells(found, a, b):
    """found = (comp, below) with blocks a and b of its cells, numbered in
    order of first element, made one cell: b's elements take a's label,
    and every row that reaches either block reaches both and all that
    either reaches."""
    comp, below = found
    labels = list(dict.fromkeys(comp))
    la, lb = labels[a], labels[b]
    both, union = 1 << la | 1 << lb, below[la] | below[lb]
    return ([la if c == lb else c for c in comp],
            [x | union if x & both else x for x in below])


def merge_cells(monkeypatch, side, a, b):
    """Make _cells return the cells of side with blocks a and b merged,
    leaving the cached components as they are."""
    found = hecke._cells
    monkeypatch.setattr(hecke, "_cells", lambda n, order: {
        **found(n, order), side: merged_cells(found(n, order)[side], a, b)})


# The detail of each failing clause at r = 1 when the cells of one side
# have two of their blocks merged: (n, side, a, b) -> {clause: detail}.
# Captured while the report still compared sets of signed permutations,
# but for the (c+) detail of (3, "LR", 2, 5), recomputed by the pair scan
# once the merged order was made transitive.
MERGED_DETAILS = {
    (3, "L", 0, 1): {
        "a_left_vs_T":
            "first differing element 1 2 3: KL block ['1 2 3', '-1 2 3', "
            "'-2 1 3', '-3 1 2'], fiber ['1 2 3']",
    },
    (3, "L", 2, 5): {
        "a_left_vs_T":
            "first differing element 1 3 2: KL block ['1 3 2', '2 -1 3', "
            "'2 3 1', '1 -2 3', '1 -3 2'], fiber ['1 3 2', '2 3 1']",
    },
    (3, "R", 0, 1): {
        "b_right_vs_S":
            "first differing element 1 2 3: KL block ['1 2 3', '-1 2 3', "
            "'2 -1 3', '2 3 -1'], fiber ['1 2 3']",
    },
    (3, "R", 2, 5): {
        "b_right_vs_S":
            "first differing element 1 3 2: KL block ['1 3 2', '-1 3 2', "
            "'3 1 2', '3 -1 2', '-3 -1 2'], fiber ['1 3 2', '3 1 2']",
    },
    (3, "LR", 0, 1): {
        "c_twosided_vs_shape":
            "first differing element 1 2 3: KL block ['1 2 3', '-1 2 3', "
            "'-2 1 3', '2 -1 3', '-3 1 2', '1 -2 3', '2 3 -1', '1 -3 2', "
            "'1 3 -2', '1 2 -3'], fiber ['1 2 3']",
        "c_plus_preorder_vs_dominance":
            "('1 2 3', '-1 2 3', True, False)",
    },
    (3, "LR", 2, 5): {
        "c_twosided_vs_shape":
            "first differing element 1 3 2: KL block ['1 3 2', '2 1 3', "
            "'2 3 1', '3 1 2', '3 2 1', '-3 2 1', '3 2 -1', '-3 2 -1', "
            "'2 -3 1', '3 1 -2', '-3 1 -2', '2 -3 -1', '1 -3 -2'], "
            "fiber ['1 3 2', '2 1 3', '2 3 1', '3 1 2']",
        "c_plus_preorder_vs_dominance":
            "('-1 2 3', '-1 3 2', True, False)",
    },
    (4, "L", 2, 5): {
        "a_left_vs_T":
            "first differing element 1 2 4 3: KL block ['1 2 4 3', "
            "'-1 2 4 3', '1 3 4 2', '-2 1 4 3', '-1 3 4 2', '2 3 4 1', "
            "'-3 1 4 2', '-2 3 4 1', '-2 3 4 -1'], fiber ['1 2 4 3', "
            "'1 3 4 2', '2 3 4 1']",
    },
    (4, "R", 2, 5): {
        "b_right_vs_S":
            "first differing element 1 2 4 3: KL block ['1 2 4 3', "
            "'-2 1 3 4', '1 4 2 3', '1 -2 3 4', '4 1 2 3', '1 3 -2 4', "
            "'1 3 4 -2'], fiber ['1 2 4 3', '1 4 2 3', '4 1 2 3']",
    },
    (4, "LR", 2, 5): {
        "c_twosided_vs_shape":
            "first differing element 1 2 4 3: KL block ['1 2 4 3', "
            "'1 3 2 4', '2 1 3 4', '1 3 4 2', '1 4 2 3', '2 3 1 4', "
            "'3 1 2 4', '-2 -1 3 4', '2 3 4 1', '4 1 2 3'], "
            "fiber ['1 2 4 3', '1 3 2 4', '2 1 3 4', '1 3 4 2', '1 4 2 3', "
            "'2 3 1 4', '3 1 2 4', '2 3 4 1', '4 1 2 3']",
        "c_plus_preorder_vs_dominance":
            "('-1 2 3 4', '-2 -1 3 4', True, False)",
    },
}


@pytest.mark.parametrize("n, side, a, b", sorted(MERGED_DETAILS))
def test_mismatch_details(n, side, a, b, monkeypatch):
    merge_cells(monkeypatch, side, a, b)
    order = XiOrder.for_r(1)
    report = conjecture_a_report(n, order)
    details = MERGED_DETAILS[n, side, a, b]
    assert {clause: c["detail"] for clause, c in report["clauses"].items()
            if not c["ok"]} == details
    if "c_plus_preorder_vs_dominance" in details:
        # the pair scan on the merged order gives the same detail
        elements = kernel(n).elements
        reach = {elements[w]: {elements[y] for y in bits(row)}
                 for w, row in enumerate(component_rows(
                     *hecke._cells(n, order)["LR"]))}
        assert pair_scan_c_plus(n, order, dominance_r, reach) == {
            "ok": False, "detail": details["c_plus_preorder_vs_dominance"]}


class TestCellularity:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("r", [0, 1])
    def test_axiom(self, n, r):
        report = cellularity_check(n, XiOrder.for_r(r))
        assert report["ok"], report["failures"]
        assert report["star_symmetry"]

    def test_axiom_inf_proxy(self):
        for n in (1, 2, 3):
            report = cellularity_check(n, XiOrder.for_r(max(n - 1, 0)))
            assert report["ok"], report["failures"]

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_basis_is_dagger_of_kl_basis(self, r):
        # the reference C_{S,T} is dagger(C_w) in closed form; dagger pushes
        # C_w through the dagger(T_y) table
        order = XiOrder.for_r(r)
        for n in (1, 2, 3):
            datum = cell_datum(n, order)
            klb, elements = kl_basis(n, order), kernel(n).elements
            basis = cellular_basis(n, order)
            for st, w in datum.w_of.items():
                assert basis[st] == dagger(klb[elements[w]])

    def test_dagger_closed_form_rank4_sample(self):
        klb = kl_basis(4, XiOrder.for_r(1))
        elements = kernel(4).elements
        for k in (0, 7, 100, 250, 383):
            cw = klb[elements[k]]
            assert dagger_bar_fixed(cw) == dagger(cw)

    def test_star_exchanges_indices(self):
        basis = cellular_basis(2, ORDER0)
        for (s, t), c_st in basis.items():
            assert star(c_st) == basis[(t, s)]


def action_mismatches(datum):
    """The (S, T, i) where the W-graph read-off of T_s C_{S,T} differs from
    its expansion by back-substitution in the reference basis."""
    basis = cellular_basis(datum.n, datum.order)
    return [(st, i) for st, c_st in basis.items()
            for i in range(datum.n)
            if hecke._generator_action(datum, i, st)
            != expand_in_cellular(datum, c_st.mul_gen(i, left=True))]


@pytest.mark.parametrize("n, r", [(n, r) for n in (1, 2, 3)
                                  for r in range(4)] + [(4, 1)])
def test_action_matches_back_substitution(n, r):
    assert action_mismatches(cell_datum(n, XiOrder.for_r(r))) == []


def over_sweep(datum, sweep):
    """A datum with the index of datum over another sweep."""
    return CellDatum(datum.n, datum.order, datum.sbt, datum.w_of, sweep)


def mutated_sweep(sweep, mutation):
    """The sweep with the first mu of its W-graph dropped, or raised by 1.
    The raised value is interned in the sweep's own table, whose ids are
    append-only, so the sweep itself reads as before."""
    basis, wgraph, coeffs = sweep
    i = next(i for i, (_, ys, _) in enumerate(wgraph) if ys)
    starts, ys, mus = (array("I", a) for a in wgraph[i])
    if mutation == "drop":
        del ys[0], mus[0]
        starts = array("I", (max(x - 1, 0) for x in starts))
    else:
        raised = dict(coeffs.terms[mus[0]])
        raised[0] = raised.get(0, 0) + 1
        mus[0] = coeffs.intern(raised)
    wgraph = wgraph[:i] + [(starts, ys, mus)] + wgraph[i + 1:]
    return basis, wgraph, coeffs


def untwisted(action):
    """The read-off with the dagger twist left out: the coefficients of
    T_s C_w in the C-basis (v_s on a left descent, C_{sw} + sum mu C_y -
    v_s^{-1} C_w on a left ascent) put on the C_{S,T} of the same w."""
    def read_off(datum, i, st):
        g = hecke.generator_gamma(i)
        v, minus_v_inv = ACoeff({g: 1}), ACoeff({-g: -1})
        return {key: (minus_v_inv if c == v else v) if key == st else -c
                for key, c in action(datum, i, st).items()}
    return read_off


@pytest.mark.parametrize("mutation", ["drop", "raise", "untwisted"])
def test_mutated_wgraph_fails(mutation, monkeypatch):
    # a mutated W-graph goes into a datum over a copy of the sweep, which
    # cellularity_check gets from cell_datum; the cached datum, its sweep
    # and the cells are left as they are
    n, order = 3, XiOrder.for_r(1)
    datum = cell_datum(n, order)
    if mutation == "untwisted":
        monkeypatch.setattr(hecke, "_generator_action",
                            untwisted(hecke._generator_action))
    else:
        datum = over_sweep(datum, mutated_sweep(datum.sweep, mutation))
        monkeypatch.setattr(hecke, "cell_datum", lambda *args: datum)
    assert action_mismatches(datum)
    report = cellularity_check(n, order)
    assert report["ok"] is False and report["star_symmetry"] is True
    assert any("W-graph expansion" in f for f in report["failures"])


def test_swapped_value_ids_break_star_symmetry(monkeypatch):
    # two value ids of one C_w, w not an involution, swapped: C_{w^{-1}}
    # no longer holds the ids of C_w at the inverse positions
    n, order = 3, XiOrder.for_r(1)
    datum = cell_datum(n, order)
    basis, wgraph, coeffs = datum.sweep
    inverse = kernel(n).inverse
    w = next(w for w, (_, ids) in enumerate(basis)
             if inverse[w] != w and len(set(ids)) > 1)
    positions, ids = basis[w][0], array("I", basis[w][1])
    k = next(k for k, c in enumerate(ids) if c != ids[0])
    ids[0], ids[k] = ids[k], ids[0]
    swapped = basis[:w] + [(positions, ids)] + basis[w + 1:]
    mutated = over_sweep(datum, (swapped, wgraph, coeffs))
    monkeypatch.setattr(hecke, "cell_datum", lambda *args: mutated)
    report = cellularity_check(n, order)
    assert report["star_symmetry"] is False and report["ok"] is False
    assert sum(f.startswith("star(") for f in report["failures"]) == 2


def test_datum_expands_each_element_once(monkeypatch):
    # the star check and the action check read every C_w, and each is
    # expanded from the sweep once
    order = XiOrder.for_r(1)
    datum = cell_datum(3, order)
    fresh = over_sweep(datum, datum.sweep)
    expanded = counted_expansions(monkeypatch)
    monkeypatch.setattr(hecke, "cell_datum", lambda *args: fresh)
    assert cellularity_check(3, order)["ok"]
    assert sorted(expanded) == list(range(len(kernel(3).elements)))


@pytest.mark.parametrize("mutation", ["drop", "raise"])
def test_mutated_wgraph_changes_the_gram(mutation, monkeypatch):
    # the Gram forms are read off the W-graph, so a datum over a mutated
    # sweep gives a different generic Gram for some shape at some slope
    differs = []
    for r in range(3):
        datum = cell_datum(3, XiOrder.for_r(r))
        mutated = over_sweep(datum, mutated_sweep(datum.sweep, mutation))
        want = specht._generic_data.__wrapped__(3, r)
        monkeypatch.setattr(specht, "cell_datum", lambda *args: mutated)
        got = specht._generic_data.__wrapped__(3, r)
        monkeypatch.undo()
        differs += [(r, lam) for lam in want if got[lam][2] != want[lam][2]]
    assert differs


def test_generic_data_expands_nothing(monkeypatch):
    # the generator action and the Gram forms are read off the W-graph of
    # a datum that has read no C_w yet, with no C_w expanded
    datum = cell_datum(3, XiOrder.for_r(1))
    fresh = over_sweep(datum, datum.sweep)
    expanded = counted_expansions(monkeypatch)
    monkeypatch.setattr(specht, "cell_datum", lambda *args: fresh)
    specht._generic_data.__wrapped__(3, 1)
    assert expanded == []


def test_datum_keeps_no_expansion():
    # cellularity_check expands every C_w and keeps the expansions only
    # while it runs: the datum holds its five fields and nothing else
    order = XiOrder.for_r(1)
    datum = cell_datum(3, order)
    assert cellularity_check(3, order)["ok"]
    assert set(vars(datum)) == set(CellDatum._fields)


def test_datum_needs_no_c_plus(monkeypatch):
    # the datum reads clauses (a), (b) and (c) only, so (c+) and its order
    # table are not built
    def refuse(*args):
        raise AssertionError("order_table was read")

    monkeypatch.setattr(hecke, "order_table", refuse)
    datum = cell_datum.__wrapped__(3, XiOrder.for_r(1))
    assert datum.w_of == cell_datum(3, XiOrder.for_r(1)).w_of


@pytest.mark.parametrize("side", ["L", "R", "LR"])
def test_datum_violation_carries_the_whole_report(side, monkeypatch):
    # merged cells on one side fail a clause of (a), (b) or (c); the error
    # holds the report of conjecture_a_report at bound n, (c+) included
    merge_cells(monkeypatch, side, 0, 1)
    order = XiOrder.for_r(1)
    with pytest.raises(ConjectureAViolation) as info:
        cell_datum.__wrapped__(3, order)
    report = conjecture_a_report(3, order, 3)
    assert not report["ok"]
    assert str(info.value) == json.dumps(report)


def test_one_datum_per_slope():
    # the datum is cached by (n, order) alone: the checks, whatever bound
    # they were given, and the Specht data share its one entry
    hecke.cell_datum.cache_clear()
    order = XiOrder.for_r(1)
    datum = cell_datum(3, order)
    assert cellularity_check(3, order, 5)["ok"]
    specht._generic_data.__wrapped__(3, 1)
    info = hecke.cell_datum.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert cell_datum(3, order) is datum
    assert cell_datum(4, XiOrder.for_r(0)) is cell_datum(4, XiOrder.for_r(0))


def test_datum_keeps_its_sweep():
    # two other sweeps evict the one the datum was built from; the check
    # runs again on the datum's own sweep, with no new one
    order = XiOrder.for_r(0)
    assert cellularity_check(3, order)["ok"]
    misses = hecke._kl_sweep.cache_info().misses
    for r in (1, 2):
        cells(3, XiOrder(r + Fraction(2, 9)))
    assert hecke._kl_sweep.cache_info().misses == misses + 2
    assert cellularity_check(3, order)["ok"]
    assert hecke._kl_sweep.cache_info().misses == misses + 2


def test_datum_is_not_kept_past_two_slopes():
    # cell_datum keeps two slopes, as the sweep does, and the Specht data
    # keep no datum, so data at two more slopes release the first one
    specht._generic_data.cache_clear()
    datum = weakref.ref(cell_datum(3, XiOrder.for_r(0)))
    specht.nonzero_simples(3, 2, 0, 0)
    for r in (0, 1, 2):
        specht._generic_data(3, r)
    gc.collect()
    assert datum() is None


def test_cellularity_check_keeps_two_slopes():
    # at the default bound the check reads the datum cached with bound n,
    # so two slopes fill the two entries and a third check hits the first
    hecke.cell_datum.cache_clear()
    for r in (0, 1, 0):
        assert cellularity_check(3, XiOrder.for_r(r))["ok"]
    info = hecke.cell_datum.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 2)


def test_checks_build_no_hecke_element(monkeypatch):
    # from cold caches, the cellularity and Theorem 4.1 checks run on the
    # sweep's arrays and on exponent dicts alone
    for cached in (hecke._kl_sweep, hecke._cells, hecke.cells,
                   hecke.kl_basis, hecke.cell_datum, specht._generic_data,
                   specht.decomposition_numbers):
        cached.cache_clear()

    def refuse(*args, **kwargs):
        raise AssertionError("a HeckeElement was built")

    monkeypatch.setattr(HeckeElement, "__init__", refuse)
    assert cellularity_check(3, XiOrder.for_r(1))["ok"]
    assert specht.theorem41_check(3, 2, 0, 1)["status"] == "ok"
