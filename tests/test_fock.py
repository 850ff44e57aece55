import pytest

from heckeb.combinat import Bipartition, Partition, enumerate_bipartitions
from heckeb.errors import (BadResidue, IncompatibleCharges, InvalidArgument,
                           NonIntegralDivision)
from heckeb.fock import (FockVector, addable_nodes, divided_power_f, f_action,
                         fock_modules_isomorphic, removable_nodes)
from heckeb.laurent import VPoly, gauss_integer

from oracles import e_action, weight_ni


def B(a, b):
    return Bipartition(Partition(tuple(a)), Partition(tuple(b)))


VACUUM = B([], [])


class TestNodes:
    def test_addable_removable(self):
        b = B([2, 1], [1])
        assert set(addable_nodes(b)) == {(1, 3, 0), (2, 2, 0), (3, 1, 0),
                                         (1, 2, 1), (2, 1, 1)}
        assert set(removable_nodes(b)) == {(1, 2, 0), (2, 1, 0), (1, 1, 1)}

    def test_weight(self):
        assert weight_ni(VACUUM, (0, 0), 2, 0) == 2
        assert weight_ni(VACUUM, (0, 0), 2, 1) == 0


class TestActions:
    def test_f0_on_vacuum(self):
        out = f_action(0, FockVector.vacuum((0, 0), 2))
        assert out.terms == {B([1], []): VPoly.integer(1),
                             B([], [1]): VPoly.monomial(1)}

    def test_commutator_on_vacuum(self):
        v = FockVector.vacuum((0, 0), 2)
        assert e_action(0, f_action(0, v)) == v.scale(gauss_integer(2))

    @pytest.mark.parametrize("s", [(0, 0), (2, 0), (1, 0), (-1, 0)])
    @pytest.mark.parametrize("e", [2, 3])
    def test_commutator_identity(self, s, e):
        # (e_i f_j - f_j e_i)|b> = delta_ij [N_i(b)]_v |b>
        for n in range(5):
            for b in enumerate_bipartitions(n):
                x = FockVector.basis(b, s, e)
                for i in range(e):
                    for j in range(e):
                        lhs = e_action(i, f_action(j, x)) - \
                            f_action(j, e_action(i, x))
                        if i != j:
                            assert lhs.is_zero()
                            continue
                        ni = weight_ni(b, s, e, i)
                        want = gauss_integer(ni) if ni >= 0 else \
                            -gauss_integer(-ni)
                        assert lhs == x.scale(want)

    def test_degree_shift(self):
        x = FockVector.basis(B([2], [1]), (0, 0), 2)
        for i in range(2):
            for b in f_action(i, x).terms:
                assert b.size == 4
            for b in e_action(i, x).terms:
                assert b.size == 2

    def test_bad_residue(self):
        with pytest.raises(BadResidue):
            f_action(2, FockVector.vacuum((0, 0), 2))

    def test_incompatible_vectors(self):
        with pytest.raises(IncompatibleCharges):
            FockVector.vacuum((0, 0), 2) + FockVector.vacuum((1, 0), 2)


class TestDividedPowers:
    def test_square(self):
        out = divided_power_f(0, 2, FockVector.vacuum((0, 0), 2))
        assert out.terms == {B([1], [1]): VPoly.integer(1)}

    def test_a_one_is_f(self):
        x = FockVector.basis(B([1], []), (0, 0), 2)
        assert divided_power_f(1, 1, x) == f_action(1, x)

    def test_non_integral_guard(self):
        # dividing a plain basis vector by [2]! must fail
        with pytest.raises(NonIntegralDivision):
            FockVector.vacuum((0, 0), 2).terms  # setup only
            VPoly.integer(1).exact_div(gauss_integer(2))


class TestCharges:
    def test_isomorphism_criterion(self):
        assert fock_modules_isomorphic((0, 0), (0, 0), 2)
        assert fock_modules_isomorphic((0, 0), (2, 0), 2)
        assert not fock_modules_isomorphic((0, 0), (1, 0), 2)
        assert fock_modules_isomorphic((0, 1), (1, 0), 2)  # swap

    def test_exports(self):
        import json
        v = f_action(0, FockVector.vacuum((0, 0), 2))
        data = json.loads(v.to_json())
        assert data["schema"] == "1"
        assert "|" in v.to_text()


def test_e_below_two_is_rejected():
    with pytest.raises(InvalidArgument):
        FockVector.vacuum((0, 0), 1)
