import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from heckeb import cyclo
from heckeb.cyclo import (CycloNumber, Specialization, _poly_divmod,
                          _poly_mul, cyclotomic_polynomial)
from heckeb.errors import InvalidArgument
from heckeb.laurent import ACoeff, pack

MODULI = (8, 12, 16, 20)

coefficient = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-40, max_value=40, max_denominator=12))


def coefficient_vectors(m):
    """Dense coefficient lists, some longer than deg Phi_m."""
    return st.lists(coefficient, max_size=2 * (len(cyclotomic_polynomial(m))
                                               - 1) + 2)


def fraction_residue(m, coeffs):
    """The residue mod Phi_m as Fractions by polynomial long division: the
    reference for the integer-first kernel."""
    phi = list(cyclotomic_polynomial(m))
    deg = len(phi) - 1
    rem = [Fraction(c) for c in coeffs]
    if len(rem) > deg:
        _, rem = _poly_divmod(rem, phi)
    return tuple(rem + [Fraction(0)] * (deg - len(rem)))


def fraction_str(coeffs):
    """The rendering of a residue with every coefficient a Fraction."""
    bits = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mono = "1" if k == 0 else (f"z^{k}" if k > 1 else "z")
        bits.append(mono if c == 1 and k > 0 else
                    (f"-{mono}" if c == -1 and k > 0 else
                     (f"{c}" if k == 0 else f"{c}*{mono}")))
    return " + ".join(bits).replace("+ -", "- ") if bits else "0"


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
        a = ACoeff({pack(1, 0): 2, pack(0, -1): 1, pack(-2, 3): -5})
        b = ACoeff({pack(0, 1): 3, pack(2, 0): -1})
        assert sp.theta(a * b) == sp.theta(a) * sp.theta(b)
        assert sp.theta(a + b) == sp.theta(a) + sp.theta(b)
        assert sp.theta(ACoeff.integer(7)) == CycloNumber.rational(sp.m, 7)

    def test_theta_kills_quadratic_relations(self):
        # (x - q0)(x + q0^-1) at x = q0 vanishes by construction; check the
        # specialized quadratic coefficient q - q^-1 maps consistently
        sp = Specialization(2, 0)
        c = ACoeff({pack(1, 0): 1, pack(-1, 0): -1})
        assert sp.theta(c) == sp.q0 - sp.q0.inverse()


def test_specialization_rejects_e_below_two():
    with pytest.raises(InvalidArgument):
        Specialization(1, 0)


def test_power_table_is_reduction():
    for m in range(1, 25):
        for k, row in enumerate(cyclo._powers(m)):
            assert all(type(c) is int for c in row)
            assert row == fraction_residue(m, [0] * k + [1])


class TestIntegerFirstKernel:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.sampled_from(MODULI))
    def test_construction_and_product(self, data, m):
        a = data.draw(coefficient_vectors(m))
        b = data.draw(coefficient_vectors(m))
        x, y = CycloNumber(m, a), CycloNumber(m, b)
        assert x.coeffs == fraction_residue(m, a)
        product = _poly_mul(list(fraction_residue(m, a)),
                            list(fraction_residue(m, b)))
        assert (x * y).coeffs == fraction_residue(m, product)
        for z in (x, y, x * y, x + y, x - y):
            assert all(type(c) is int if c.denominator == 1
                       else type(c) is Fraction for c in z.coeffs)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), m=st.sampled_from(MODULI))
    def test_inverse(self, data, m):
        x = CycloNumber(m, data.draw(coefficient_vectors(m)))
        if not x.is_zero():
            assert x * x.inverse() == CycloNumber.rational(m, 1)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.sampled_from(MODULI))
    def test_hash_and_str_ignore_coefficient_type(self, data, m):
        a = data.draw(coefficient_vectors(m))
        x = CycloNumber(m, a)
        as_fractions = CycloNumber(m, [Fraction(c) for c in a])
        # the same value reached through a product with one
        via_product = CycloNumber(m, a) * CycloNumber(m, [Fraction(1)])
        for y in (as_fractions, via_product):
            assert x == y and hash(x) == hash(y)
        assert hash(x) == hash((m, fraction_residue(m, a)))
        assert str(x) == fraction_str(fraction_residue(m, a))


def test_trailing_zeros_are_ignored():
    # a coefficient list longer than deg Phi_m that ends in zeros
    assert CycloNumber(8, [0, 0, 0, 1, 0]) == CycloNumber.zeta_power(8, 3)
    assert CycloNumber(8, [0, 0, 1, 0, 0]) == CycloNumber.zeta_power(8, 2)
    q, rem = _poly_divmod([Fraction(c) for c in (0, 0, 0, 1, 0)],
                          list(cyclotomic_polynomial(8)))
    assert q == [] and rem == [0, 0, 0, 1]


def test_mixed_moduli_raise():
    a, b = CycloNumber(8, [1, 1]), CycloNumber(12, [1, 1])
    for op in (lambda: a + b, lambda: a - b, lambda: a * b):
        with pytest.raises(InvalidArgument):
            op()


def test_mixed_moduli_raise_under_optimize():
    code = ("from heckeb.cyclo import CycloNumber\n"
            "from heckeb.errors import InvalidArgument\n"
            "a, b = CycloNumber(8, [1, 1]), CycloNumber(12, [1, 1])\n"
            "for op in (a.__add__, a.__mul__):\n"
            "    try:\n"
            "        op(b)\n"
            "    except InvalidArgument:\n"
            "        print('raised')\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-O", "-c", code],
                          env={"PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert done.stdout == "raised\nraised\n", done.stderr
