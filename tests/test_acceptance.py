"""Acceptance gate: one test (one pass/fail line under pytest -v) per
criterion.  Each test is self-contained and exhaustive over its stated
range.
"""

import pytest
from fractions import Fraction

from heckeb import INFINITY
from heckeb.canonical import (canonical_basis, charge_from,
                              decomposition_matrix, gamma)
from heckeb.combinat import enumerate_bipartitions, parse_bipartition
from heckeb.crystal import crystal_graph, uglov_bipartitions
from heckeb.domino import group_elements, insert, s_t_lambda
from heckeb.fock import FockVector, f_action
from heckeb.hecke import cells, cellularity_check, conjecture_a_report, \
    kl_basis
from heckeb.laurent import XiOrder
from heckeb.orders import dominance_r, hasse
from heckeb.specht import theorem41_check

from oracles import (dominance_inf_explicit, e_action, gauss_integer,
                     qtilde_r, validate_tableau, weight_ni)


def B(text):
    return parse_bipartition(text)


def test_c01_orders_golden_examples():
    # the two total chains on Bip(2)
    assert hasse(2, 0).to_text() == \
        "(∅;11)  <|  (11;∅)  <|  (1;1)  <|  (∅;2)  <|  (2;∅)"
    assert hasse(2, INFINITY).to_text() == \
        "(∅;11)  <|  (∅;2)  <|  (1;1)  <|  (11;∅)  <|  (2;∅)"
    # the three published diagrams on Bip(3), edge for edge
    golden = {
        0: [("(3;∅)", "(∅;3)"), ("(∅;3)", "(2;1)"), ("(2;1)", "(1;2)"),
            ("(2;1)", "(21;∅)"), ("(1;2)", "(∅;21)"), ("(1;2)", "(11;1)"),
            ("(21;∅)", "(∅;21)"), ("(21;∅)", "(11;1)"),
            ("(∅;21)", "(1;11)"), ("(11;1)", "(1;11)"),
            ("(1;11)", "(111;∅)"), ("(111;∅)", "(∅;111)")],
        1: [("(3;∅)", "(21;∅)"), ("(21;∅)", "(2;1)"), ("(2;1)", "(∅;3)"),
            ("(∅;3)", "(1;2)"), ("(1;2)", "(11;1)"), ("(11;1)", "(111;∅)"),
            ("(111;∅)", "(1;11)"), ("(1;11)", "(∅;21)"),
            ("(∅;21)", "(∅;111)")],
        INFINITY: [("(3;∅)", "(21;∅)"), ("(21;∅)", "(2;1)"),
                   ("(21;∅)", "(111;∅)"), ("(2;1)", "(11;1)"),
                   ("(111;∅)", "(11;1)"), ("(11;1)", "(1;2)"),
                   ("(1;2)", "(1;11)"), ("(1;2)", "(∅;3)"),
                   ("(1;11)", "(∅;21)"), ("(∅;3)", "(∅;21)"),
                   ("(∅;21)", "(∅;111)")],
    }
    for r, want in golden.items():
        assert set(hasse(3, r).edges) == {(B(a), B(b)) for a, b in want}
    assert set(hasse(3, 2).edges) == set(hasse(3, INFINITY).edges)


def test_c02_order_laws():
    # partial-order axioms for all r <= 6 and agreement with the classical
    # order for r >= n-1, exhaustively on Bip(n), n <= 5
    for n in range(6):
        bips = list(enumerate_bipartitions(n))
        for r in range(7):
            rel = {(a, b) for a in bips for b in bips if dominance_r(a, b, r)}
            assert all((a, a) in rel for a in bips)
            assert all(a == b for a, b in rel if (b, a) in rel)
            assert all((a, c) in rel for a, b in rel for c in bips
                       if (b, c) in rel)
            if r >= n - 1:
                assert rel == {(a, b) for a in bips for b in bips
                               if dominance_inf_explicit(a, b)}


@pytest.mark.parametrize("r", [0, 1, 2, 3, INFINITY])
def test_c03_domino_insertion(r):
    for n in range(1, 5):
        seen = set()
        for w in group_elements(n):
            p, q = insert(w, r)
            validate_tableau(p)
            validate_tableau(q)
            s, t, lam = s_t_lambda(w, r)
            # (3.1): bitableaux computed through the quotient chain
            assert qtilde_r(p) == s and qtilde_r(q) == t
            # (3.3): Q_r(w) = P_r(w^{-1})
            assert q == insert(w.inverse(), r)[0]
            assert s.shape == t.shape == lam
            seen.add((s, t))
        # (3.2): bijection onto same-shape pairs
        assert len(seen) == len(group_elements(n))


def test_c04_crystal_golden_graphs():
    golden = {
        (0, 0): [("(∅;∅)", 0, "(1;∅)"), ("(1;∅)", 0, "(1;1)"),
                 ("(1;∅)", 1, "(2;∅)"), ("(1;1)", 1, "(2;1)"),
                 ("(2;∅)", 0, "(3;∅)"), ("(2;∅)", 1, "(21;∅)"),
                 ("(2;1)", 1, "(2;2)"), ("(21;∅)", 0, "(31;∅)"),
                 ("(3;∅)", 0, "(3;1)"), ("(3;∅)", 1, "(4;∅)")],
        (2, 0): [("(∅;∅)", 0, "(1;∅)"), ("(1;∅)", 0, "(1;1)"),
                 ("(1;∅)", 1, "(2;∅)"), ("(1;1)", 1, "(2;1)"),
                 ("(2;∅)", 0, "(3;∅)"), ("(2;∅)", 1, "(21;∅)"),
                 ("(2;1)", 1, "(21;1)"), ("(21;∅)", 0, "(31;∅)"),
                 ("(3;∅)", 0, "(3;1)"), ("(3;∅)", 1, "(4;∅)")],
    }
    for charge, want in golden.items():
        g = crystal_graph(charge, 2, 4)
        assert set(g.edges) == {(B(a), i, B(b)) for a, i, b in want}
    # the two edges printed with label 0 in the source compute to residue 1
    flagged = [((0, 0), "(2;1)", "(2;2)"), ((2, 0), "(2;1)", "(21;1)")]
    for charge, src, dst in flagged:
        labels = [i for a, i, b in crystal_graph(charge, 2, 4).edges
                  if (a, b) == (B(src), B(dst))]
        assert labels == [1], f"flagged edge {src}->{dst} is residue {labels}"


def test_c05_uglov_rank4_sets():
    assert set(uglov_bipartitions(4, (0, 0), 2)) == \
        {B("(4;∅)"), B("(31;∅)"), B("(3;1)"), B("(2;2)")}
    assert set(uglov_bipartitions(4, (2, 0), 2)) == \
        {B("(4;∅)"), B("(31;∅)"), B("(3;1)"), B("(21;1)")}


def test_c06_fock_commutator():
    for s in ((0, 0), (2, 0), (1, 0), (-1, 0)):
        for e in (2, 3):
            for n in range(5):
                for b in enumerate_bipartitions(n):
                    x = FockVector.basis(b, s, e)
                    for i in range(e):
                        for j in range(e):
                            lhs = e_action(i, f_action(j, x)) - \
                                f_action(j, e_action(i, x))
                            if i != j:
                                assert lhs.is_zero()
                            else:
                                ni = weight_ni(b, s, e, i)
                                want = gauss_integer(abs(ni))
                                if ni < 0:
                                    want = -want
                                assert lhs == x.scale(want)


def test_c07_canonical_triangularity():
    from heckeb.laurent import V_ONE
    for e in (2, 3):
        for d in range(e):
            for r in range(5):
                s = charge_from(r, d, e)
                for n in range(5):
                    for mu, g in canonical_basis(n, s, e, r).items():
                        assert g.coeff(mu) == V_ONE
                        for lam, c in g.terms.items():
                            if lam != mu:
                                assert c.in_v_zv()
                                assert dominance_r(lam, mu, r)


def test_c08_theorem_5_2_invariance():
    assert gamma(B("(2;2)"), (0, 0), (2, 0), 2) == B("(21;1)")
    for s2 in ((2, 0), (4, 0)):
        for n in range(5):
            d1 = decomposition_matrix(n, (0, 0), 2)
            d2 = decomposition_matrix(n, s2, 2)
            for mu in d1.cols:
                target = gamma(mu, (0, 0), s2, 2)
                for lam in d1.rows:
                    assert d1.entry(lam, mu).at_one() == \
                        d2.entry(lam, target).at_one()


def test_c09_conjecture_a():
    for n in (1, 2, 3):
        for r in (0, 1, 2, max(n - 1, 0)):
            report = conjecture_a_report(n, XiOrder.for_r(r))
            assert report["ok"], report


def test_c09_conjecture_a_rank4():
    for r in (0, 1, 2, 3):
        report = conjecture_a_report(4, XiOrder.for_r(r))
        assert report["ok"], report


@pytest.mark.parametrize("xi", [Fraction(3, 4), Fraction(7, 4)])
def test_c09_conjecture_a_rank4_second_chambers(xi):
    # for_r(r) samples the rank-4 chamber just above r; 3/4 and 7/4 lie in
    # the chambers (1/2, 1) and (3/2, 2), past the walls at 1/2 and 3/2
    report = conjecture_a_report(4, XiOrder(xi))
    assert report["ok"], report


def test_c10_cellularity():
    for n in (1, 2, 3):
        for r in (0, 1, max(n - 1, 0)):
            report = cellularity_check(n, XiOrder.for_r(r))
            assert report["ok"], report["failures"]
            assert report["star_symmetry"]


@pytest.mark.parametrize(
    "order", [XiOrder.for_r(r) for r in range(4)]
    + [XiOrder(Fraction(3, 4)), XiOrder(Fraction(7, 4))],
    ids=lambda o: f"xi{o.xi.numerator}_{o.xi.denominator}")
def test_c10_cellularity_rank4(order):
    # every r, and the two chambers past the walls at 1/2 and 3/2 (c09)
    report = cellularity_check(4, order)
    assert report["ok"], report["failures"]
    assert report["star_symmetry"]


def test_c11_theorem_4_1():
    # includes the n=1 anchor: at Q0^2 = -1 the only simple is ((1),empty)
    from heckeb.specht import nonzero_simples
    assert nonzero_simples(1, 2, 0, 0) == [B("(1;∅)")]
    for n in (1, 2, 3):
        for r in (0, 1, 2):
            report = theorem41_check(n, 2, 0, r)
            assert report["status"] == "ok", report["details"]


def test_c12_order_robustness():
    offsets = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
    for n in (1, 2, 3):
        for r in (0, 1, 2):
            orders = [XiOrder(Fraction(r) + off) for off in offsets]
            ref_basis = kl_basis(n, orders[0])
            ref_cells = {frozenset(c) for c in cells(n, orders[0], "LR")}
            for o in orders[1:]:
                assert kl_basis(n, o) == ref_basis
                assert {frozenset(c)
                        for c in cells(n, o, "LR")} == ref_cells
