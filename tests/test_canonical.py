import pytest

from heckeb import canonical
from heckeb.canonical import (canonical_basis, charge_from,
                              decomposition_matrix, default_r, gamma,
                              peeling_path, principal_monomial)
from heckeb.combinat import enumerate_bipartitions, parse_bipartition
from heckeb.crystal import crystal_f, uglov_bipartitions
from heckeb.errors import ConventionViolation, IncompatibleCharges, NotUglov
from heckeb.fock import FockVector
from heckeb.laurent import VPoly, V_ONE
from heckeb.orders import dominance_r, order_key

from oracles import greatest_residue_path


def B(text):
    return parse_bipartition(text)


class TestChargeFrom:
    def test_anchors(self):
        assert charge_from(0, 0, 2) == (0, 0)
        assert charge_from(2, 0, 2) == (2, 0)
        assert charge_from(5, 1, 3) == (4, 0)

    def test_inequality(self):
        for e in (2, 3):
            for d in range(e):
                for r in range(8):
                    s0, _ = charge_from(r, d, e)
                    assert s0 <= r < s0 + e
                    assert s0 % e == d % e


class TestPrincipalMonomial:
    def test_vacuum(self):
        assert principal_monomial(B("(∅;∅)"), (0, 0), 2) == \
            FockVector.vacuum((0, 0), 2)

    def test_single_box(self):
        out = principal_monomial(B("(1;∅)"), (0, 0), 2)
        assert out.terms == {B("(1;∅)"): V_ONE, B("(∅;1)"): VPoly.monomial(1)}

    def test_divided_power_shape(self):
        out = principal_monomial(B("(1;1)"), (0, 0), 2)
        assert out.terms == {B("(1;1)"): V_ONE}

    def test_not_uglov(self):
        with pytest.raises(NotUglov):
            peeling_path(B("(∅;1)"), (0, 0), 2)


class TestCanonicalBasis:
    @pytest.mark.parametrize("s", [(0, 0), (2, 0)])
    def test_triangular_in_r_order(self, s):
        r = default_r(s)
        for n in range(5):
            basis = canonical_basis(n, s, 2, r)
            assert set(basis) == set(uglov_bipartitions(n, s, 2))
            for mu, g in basis.items():
                assert g.coeff(mu) == V_ONE
                for lam, c in g.terms.items():
                    if lam != mu:
                        assert c.in_v_zv()
                        assert dominance_r(lam, mu, r) and lam != mu

    def test_policy_independence(self, monkeypatch):
        # the basis built from the greatest-residue peeling, uncached,
        # equals the one built from the least-residue peeling; at e = 2 and
        # charge (0, 0) the two paths agree up to n = 4, at e = 3 they do not
        cases = [((0, 0), 2), ((0, 0), 3), ((1, 0), 3)]
        least = {(s, e, n): canonical_basis(n, s, e)
                 for s, e in cases for n in range(5)}
        for s, e in cases[1:]:
            assert any(greatest_residue_path(mu, s, e)
                       != peeling_path(mu, s, e) for mu in least[s, e, 4])
        monkeypatch.setattr(canonical, "peeling_path", greatest_residue_path)
        for (s, e, n), basis in least.items():
            assert canonical_basis.__wrapped__(n, s, e) == basis

    @pytest.mark.parametrize("e", [2, 3])
    @pytest.mark.parametrize("s", [(0, 0), (1, 0), (2, 0), (-2, 0), (0, 2)])
    def test_matches_pairwise_oracle(self, s, e):
        # equal vectors, or the same error class
        def outcome(build, n, r):
            try:
                return build(n, s, e, r)
            except ConventionViolation as exc:
                return type(exc)

        for n in range(5):
            for r in [None, *range(n)]:
                assert outcome(canonical_basis, n, r) == \
                    outcome(pairwise_canonical_basis, n, r), (n, r)

    def test_offender_must_go_down(self, monkeypatch):
        # with no completion a correction leaves its offender in place; the
        # next step sees the largest offender fail to go down in order_key
        monkeypatch.setattr(VPoly, "symmetric_completion",
                            lambda self: VPoly())
        with pytest.raises(ConventionViolation, match="not below it"):
            canonical_basis.__wrapped__(4, (0, 0), 2)

    def test_n1_example(self):
        basis = canonical_basis(1, (0, 0), 2)
        g = basis[B("(1;∅)")]
        assert g.terms == {B("(1;∅)"): V_ONE, B("(∅;1)"): VPoly.monomial(1)}


class TestLinearExtension:
    def test_ascending_in_dominance(self):
        # canonical_basis takes its vertices in this order
        for r in (0, 1, 2):
            out = sorted(enumerate_bipartitions(3),
                         key=lambda b: order_key(b, r))
            for i, a in enumerate(out):
                assert not any(dominance_r(b, a, r) for b in out[i + 1:])


def pairwise_linear_extension(bips, r):
    """Reference linear extension of the r-order: repeatedly take the
    first element, in the given order, that no other remaining one is
    below."""
    remaining, out = list(bips), []
    while remaining:
        b = next(b for b in remaining
                 if not any(c != b and dominance_r(c, b, r)
                            for c in remaining))
        out.append(b)
        remaining.remove(b)
    return out


def pairwise_canonical_basis(n, s, e, r=None):
    """Reference canonical basis: vertices in pairwise_linear_extension
    order, and of the offenders the last one reached by a scan that moves
    up whenever the next offender dominates the current one."""
    r = default_r(s) if r is None else r
    uglov = uglov_bipartitions(n, s, e)
    basis = {}

    def compute(mu):
        if mu not in basis:
            g = principal_monomial(mu, s, e)
            while offenders := [nu for nu, c in g.terms.items()
                                if nu != mu and not c.in_v_zv()]:
                nu = offenders[0]
                for other in offenders[1:]:
                    if dominance_r(nu, other, r):
                        nu = other
                if nu not in uglov:
                    raise ConventionViolation(f"{nu} is not a vertex")
                g = g - compute(nu).scale(g.terms[nu].symmetric_completion())
            if g.coeff(mu) != V_ONE:
                raise ConventionViolation(f"diagonal at {mu}")
            basis[mu] = g
        return basis[mu]

    for mu in pairwise_linear_extension(uglov, r):
        compute(mu)
    return basis


class TestDecompositionMatrix:
    def test_n1_column(self):
        dm = decomposition_matrix(1, (0, 0), 2)
        assert dm.entry(B("(1;∅)"), B("(1;∅)")) == V_ONE
        assert dm.entry(B("(∅;1)"), B("(1;∅)")) == VPoly.monomial(1)

    def test_diagonal_ones(self):
        for n in range(5):
            dm = decomposition_matrix(n, (2, 0), 2)
            for mu in dm.cols:
                assert dm.entry(mu, mu) == V_ONE

    def test_columns_are_uglov(self):
        for n in range(5):
            dm = decomposition_matrix(n, (0, 0), 2)
            assert set(dm.cols) == set(uglov_bipartitions(n, (0, 0), 2))

    def test_tsv_v1(self):
        dm = decomposition_matrix(1, (0, 0), 2, specialize_v1=True)
        lines = dm.to_tsv().splitlines()
        assert lines[0].split("\t")[1] == "(1;∅)"
        assert all(cell in ("0", "1") for line in lines[1:]
                   for cell in line.split("\t")[1:])


class TestGamma:
    def test_golden_values(self):
        assert gamma(B("(2;2)"), (0, 0), (2, 0), 2) == B("(21;1)")
        for fixed in ("(4;∅)", "(31;∅)", "(3;1)"):
            assert gamma(B(fixed), (0, 0), (2, 0), 2) == B(fixed)

    def test_bijection_between_vertex_sets(self):
        for n in range(5):
            src = uglov_bipartitions(n, (0, 0), 2)
            dst = set(uglov_bipartitions(n, (2, 0), 2))
            image = {gamma(mu, (0, 0), (2, 0), 2) for mu in src}
            assert image == dst

    def test_incompatible(self):
        with pytest.raises(IncompatibleCharges):
            gamma(B("(1;∅)"), (0, 0), (1, 0), 2)

    @pytest.mark.parametrize("s1, s2, e", [((0, 0), (2, 0), 2),
                                           ((0, 0), (3, 0), 3)])
    def test_commutes_with_every_f_i(self, s1, s2, e):
        # gamma(f_i mu) = f_i gamma(mu), and f_i is None on both sides
        # together: gamma is a crystal isomorphism whatever path it peels
        for n in range(6):
            for mu in uglov_bipartitions(n, s1, e):
                image = gamma(mu, s1, s2, e)
                for i in range(e):
                    up, image_up = crystal_f(mu, s1, e, i), \
                        crystal_f(image, s2, e, i)
                    assert (up is None) == (image_up is None)
                    if up is not None:
                        assert gamma(up, s1, s2, e) == image_up

    @pytest.mark.parametrize("pair", [((0, 0), (2, 0)), ((0, 0), (4, 0))])
    def test_decomposition_invariance_at_v1(self, pair):
        s1, s2 = pair
        for n in range(5):
            d1 = decomposition_matrix(n, s1, 2)
            d2 = decomposition_matrix(n, s2, 2)
            for mu in d1.cols:
                target = gamma(mu, s1, s2, 2)
                for lam in d1.rows:
                    assert d1.entry(lam, mu).at_one() == \
                        d2.entry(lam, target).at_one()
