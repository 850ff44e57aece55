import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from heckeb.errors import (InvalidArgument, InvalidSlope,
                           IrrationalityViolation, NonIntegralDivision)
from heckeb.laurent import (ACoeff, VPoly, XiOrder, gauss_factorial,
                            gauss_integer)

acoeff_strategy = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(-9, 9), max_size=5).map(ACoeff)

vpoly_strategy = st.dictionaries(
    st.integers(-5, 5), st.integers(-9, 9), max_size=5).map(VPoly)


class TestACoeff:
    @given(acoeff_strategy, acoeff_strategy, acoeff_strategy)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ACoeff() == a
        assert a * ACoeff.integer(1) == a

    @given(acoeff_strategy, acoeff_strategy)
    def test_bar(self, a, b):
        assert a.bar().bar() == a
        assert (a * b).bar() == a.bar() * b.bar()

    def test_str(self):
        assert str(ACoeff({(1, 0): 1, (0, -1): -2})) == "-2*Q^-1 + q"

    def test_no_instance_dict(self):
        for x in (ACoeff({(1, 0): 1}), VPoly({1: 1})):
            assert not hasattr(x, "__dict__")


class TestXiOrder:
    def test_rejects_integer_slope(self):
        with pytest.raises(InvalidSlope):
            XiOrder(Fraction(2))

    @pytest.mark.parametrize("xi", [Fraction(0), Fraction(-1, 2)])
    def test_rejects_nonpositive_slope(self, xi):
        with pytest.raises(InvalidSlope):
            XiOrder(xi)

    @pytest.mark.parametrize("offset", [Fraction(0), Fraction(1),
                                        Fraction(3, 2), Fraction(-1, 3)])
    def test_for_r_rejects_offset_outside_unit_interval(self, offset):
        with pytest.raises(InvalidSlope):
            XiOrder.for_r(1, offset)

    def test_floor(self):
        assert XiOrder.for_r(3).r == 3
        assert XiOrder(Fraction(7, 3)).r == 2

    def test_signs(self):
        o = XiOrder(Fraction(1, 2))  # a + xi*b > 0
        assert o.sign((1, 0)) > 0
        assert o.sign((0, 1)) > 0
        assert o.sign((-1, 1)) < 0  # -1 + 1/2 < 0
        assert o.sign((1, -1)) > 0
        assert o.sign((0, 0)) == 0

    def test_tie_raises(self):
        o = XiOrder(Fraction(1, 2))
        with pytest.raises(IrrationalityViolation):
            o.sign((-1, 2))  # -1 + 2*(1/2) = 0

    def test_antisymmetric_solution(self):
        o = XiOrder.for_r(0)
        f = ACoeff({(0, 1): 3, (0, -1): -3, (2, -1): 1, (-2, 1): -1})
        x = o.antisymmetric_solution(f)
        assert x - x.bar() == f
        assert o.is_strictly_negative(x)
        with pytest.raises(InvalidArgument):
            o.antisymmetric_solution(ACoeff({(0, 1): 1}))

    def test_symmetric_completion(self):
        o = XiOrder.for_r(0)
        c = ACoeff({(1, 0): 2, (0, 0): 5, (-1, 0): 7})
        s = o.symmetric_completion(c)
        assert s.bar() == s
        # matches c on the non-negative side: c - s = 5 q^-1
        assert o.is_strictly_negative(c - s)
        assert (c - s).terms.keys() <= {(-1, 0), (1, 0)}


class TestVPoly:
    @given(vpoly_strategy, vpoly_strategy, vpoly_strategy)
    def test_ring_axioms(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a.bar().bar() == a

    @given(vpoly_strategy, vpoly_strategy)
    def test_exact_div_roundtrip(self, a, b):
        if a.is_zero() or b.is_zero():
            return
        assert (a * b).exact_div(b) == a

    def test_str(self):
        assert str(VPoly({2: 3, 0: -2, -1: 1})) == "v^-1 - 2 + 3*v^2"

    def test_exact_div_failure(self):
        with pytest.raises(NonIntegralDivision):
            VPoly({0: 1}).exact_div(VPoly({0: 2}))

    def test_gauss(self):
        assert gauss_integer(0).is_zero()
        assert gauss_integer(2) == VPoly({1: 1, -1: 1})
        assert gauss_integer(3) == VPoly({2: 1, 0: 1, -2: 1})
        assert gauss_factorial(3) == gauss_integer(2) * gauss_integer(3)
        for n in range(1, 6):
            assert gauss_integer(n).at_one() == n
            assert gauss_integer(n).bar() == gauss_integer(n)

    def test_symmetric_completion(self):
        p = VPoly({-2: 3, 0: 1, 5: 9})
        s = p.symmetric_completion()
        assert s.bar() == s
        assert (p - s).in_v_zv()
