import pytest
from fractions import Fraction

from heckeb.cyclo import (CycloNumber, Specialization, cyclotomic_polynomial)
from heckeb.errors import InvalidArgument
from heckeb.laurent import ACoeff


def as_ints(poly):
    return [int(c) for c in poly]


class TestCyclotomicPolynomial:
    def test_small_cases(self):
        assert as_ints(cyclotomic_polynomial(1)) == [-1, 1]
        assert as_ints(cyclotomic_polynomial(2)) == [1, 1]
        assert as_ints(cyclotomic_polynomial(4)) == [1, 0, 1]
        assert as_ints(cyclotomic_polynomial(8)) == [1, 0, 0, 0, 1]
        assert as_ints(cyclotomic_polynomial(12)) == [1, 0, -1, 0, 1]

    def test_degree_is_totient(self):
        from math import gcd
        for m in range(1, 25):
            totient = sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)
            assert len(cyclotomic_polynomial(m)) - 1 == totient


class TestCycloNumber:
    @pytest.mark.parametrize("m", [8, 12])
    def test_zeta_has_order_m(self, m):
        z = CycloNumber.zeta_power(m, 1)
        acc = z
        for k in range(1, m):
            assert not (acc - CycloNumber.rational(m, 1)).is_zero()
            acc = acc * z
        assert acc == CycloNumber.rational(m, 1)

    @pytest.mark.parametrize("m", [8, 12])
    def test_field_inverse(self, m):
        one = CycloNumber.rational(m, 1)
        for coeffs in ([2], [1, 1], [Fraction(1, 3), -2, 0, 5], [0, 1]):
            x = CycloNumber(m, coeffs)
            assert x * x.inverse() == one
        with pytest.raises(ZeroDivisionError):
            CycloNumber.zero(m).inverse()

    def test_arithmetic(self):
        m = 8
        a = CycloNumber(m, [1, 2])
        b = CycloNumber(m, [0, 0, 3])
        assert a + b - b == a
        assert a * b == b * a
        assert (a / b) * b == a


class TestSpecialization:
    @pytest.mark.parametrize("e,d", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_parameter_conditions(self, e, d):
        sp = Specialization(e, d)
        one = CycloNumber.rational(sp.m, 1)
        # q0^2 is a primitive e-th root of unity
        p = sp.q0 * sp.q0
        acc = p
        for k in range(1, e):
            assert not (acc - one).is_zero()
            acc = acc * p
        assert acc == one
        # Q0^2 = -q0^(2d)
        q2d = one
        for _ in range(2 * d):
            q2d = q2d * sp.q0
        assert (sp.Q0 * sp.Q0 + q2d).is_zero()

    def test_theta_ring_map(self):
        sp = Specialization(2, 0)
        a = ACoeff({(1, 0): 2, (0, -1): 1, (-2, 3): -5})
        b = ACoeff({(0, 1): 3, (2, 0): -1})
        assert sp.theta(a * b) == sp.theta(a) * sp.theta(b)
        assert sp.theta(a + b) == sp.theta(a) + sp.theta(b)
        assert sp.theta(ACoeff.integer(7)) == CycloNumber.rational(sp.m, 7)

    def test_theta_kills_quadratic_relations(self):
        # (x - q0)(x + q0^-1) at x = q0 vanishes by construction; check the
        # specialized quadratic coefficient q - q^-1 maps consistently
        sp = Specialization(2, 0)
        c = ACoeff({(1, 0): 1, (-1, 0): -1})
        assert sp.theta(c) == sp.q0 - sp.q0.inverse()


def test_specialization_rejects_e_below_two():
    with pytest.raises(InvalidArgument):
        Specialization(1, 0)
