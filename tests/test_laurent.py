import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from heckeb.errors import (InvalidArgument, InvalidSlope,
                           IrrationalityViolation, NonIntegralDivision)
from heckeb.laurent import ACoeff, VPoly, XiOrder, pack, unpack

from oracles import (antisymmetric_solution, exact_div, gauss_factorial,
                     gauss_integer, is_strictly_negative)

acoeff_strategy = st.dictionaries(
    st.builds(pack, st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(-9, 9), max_size=5).map(ACoeff)

vpoly_strategy = st.dictionaries(
    st.integers(-5, 5), st.integers(-9, 9), max_size=5).map(VPoly)


# Exponent pairs the key holds: any alpha, |beta| < 2^15; small values too,
# so that ties and equal alphas come up.
alphas = st.one_of(st.integers(-6, 6), st.integers(-2**40, 2**40))
betas = st.one_of(st.integers(-6, 6), st.integers(-2**15 + 1, 2**15 - 1))
slopes = st.fractions(min_value=Fraction(1, 12), max_value=8,
                      max_denominator=12).filter(lambda x: x.denominator != 1)


class TestKey:
    @given(alphas, betas)
    def test_round_trip(self, a, b):
        assert unpack(pack(a, b)) == (a, b)

    @given(alphas, betas, alphas, betas)
    def test_order_is_pair_order(self, a1, b1, a2, b2):
        assert (pack(a1, b1) < pack(a2, b2)) == ((a1, b1) < (a2, b2))

    @given(alphas, betas, alphas, betas)
    def test_sum_is_pair_sum(self, a1, b1, a2, b2):
        assume(abs(b1 + b2) < 2**15)
        assert pack(a1, b1) + pack(a2, b2) == pack(a1 + a2, b1 + b2)
        assert -pack(a1, b1) == pack(-a1, -b1)

    @given(slopes, alphas, betas)
    def test_sign_is_pair_formula(self, xi, a, b):
        val = a + xi * b
        order = XiOrder(xi)
        if val == 0 and (a, b) != (0, 0):
            with pytest.raises(IrrationalityViolation):
                order.sign(pack(a, b))
        else:
            assert order.sign(pack(a, b)) == (val > 0) - (val < 0)

    @pytest.mark.parametrize("b", [2**15, -2**15, 10**9])
    def test_out_of_range_raises(self, b):
        with pytest.raises(InvalidArgument):
            pack(0, b)

    def test_out_of_range_raises_under_optimize(self):
        code = ("from heckeb.errors import InvalidArgument\n"
                "from heckeb.laurent import pack\n"
                "for b in (2**15, -2**15):\n"
                "    try:\n"
                "        pack(1, b)\n"
                "    except InvalidArgument:\n"
                "        print('raised')\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-O", "-c", code],
                              env={"PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=120)
        assert done.stdout == "raised\nraised\n", done.stderr


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
        assert str(ACoeff({pack(1, 0): 1, pack(0, -1): -2})) == "-2*Q^-1 + q"

    def test_no_instance_dict(self):
        for x in (ACoeff({pack(1, 0): 1}), VPoly({1: 1})):
            assert not hasattr(x, "__dict__")


class TestXiOrder:
    def test_rejects_integer_slope(self):
        with pytest.raises(InvalidSlope):
            XiOrder(Fraction(2))

    @pytest.mark.parametrize("xi", [Fraction(0), Fraction(-1, 2)])
    def test_rejects_nonpositive_slope(self, xi):
        with pytest.raises(InvalidSlope):
            XiOrder(xi)

    def test_floor(self):
        assert XiOrder.for_r(3).r == 3
        assert XiOrder(Fraction(7, 3)).r == 2

    def test_signs(self):
        o = XiOrder(Fraction(1, 2))  # a + xi*b > 0
        assert o.sign(pack(1, 0)) > 0
        assert o.sign(pack(0, 1)) > 0
        assert o.sign(pack(-1, 1)) < 0  # -1 + 1/2 < 0
        assert o.sign(pack(1, -1)) > 0
        assert o.sign(pack(0, 0)) == 0

    def test_tie_raises(self):
        o = XiOrder(Fraction(1, 2))
        with pytest.raises(IrrationalityViolation):
            o.sign(pack(-1, 2))  # -1 + 2*(1/2) = 0

    def test_antisymmetric_solution(self):
        o = XiOrder.for_r(0)
        f = ACoeff({pack(0, 1): 3, pack(0, -1): -3,
                    pack(2, -1): 1, pack(-2, 1): -1})
        x = antisymmetric_solution(o, f)
        assert x - x.bar() == f
        assert is_strictly_negative(o, x)
        with pytest.raises(InvalidArgument):
            antisymmetric_solution(o, ACoeff({pack(0, 1): 1}))

    def test_symmetric_completion(self):
        o = XiOrder.for_r(0)
        c = ACoeff({pack(1, 0): 2, pack(0, 0): 5, pack(-1, 0): 7})
        s = o.symmetric_completion(c)
        assert s.bar() == s
        # matches c on the non-negative side: c - s = 5 q^-1
        assert is_strictly_negative(o, c - s)
        assert (c - s).terms.keys() <= {pack(-1, 0), pack(1, 0)}


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
        assert exact_div(a * b, b) == a

    def test_str(self):
        assert str(VPoly({2: 3, 0: -2, -1: 1})) == "v^-1 - 2 + 3*v^2"

    def test_exact_div_failure(self):
        with pytest.raises(NonIntegralDivision):
            exact_div(VPoly({0: 1}), VPoly({0: 2}))

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
