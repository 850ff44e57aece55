"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Numbers are residues modulo the m-th cyclotomic polynomial with rational
coefficients; m = 4e covers the specializations sending q to a primitive
2e-th root of unity and Q to an odd power of zeta_{4e}.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import check_e
from .laurent import ACoeff

Poly = list[Fraction]  # dense, index = degree


def _trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    while len(a) >= len(b) and _trim(a):
        if not a:
            break
        d = len(a) - len(b)
        c = a[-1] / lead
        q[d] = c
        for i, y in enumerate(b):
            a[i + d] -= c * y
        _trim(a)
    return _trim(q), a


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[Fraction, ...]:
    """The m-th cyclotomic polynomial (monic, rational coefficients)."""
    num: Poly = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            q, rem = _poly_divmod(num, list(cyclotomic_polynomial(d)))
            assert not rem
            num = q
    return tuple(num)


class CycloNumber:
    """Element of Q(zeta_m), reduced modulo the m-th cyclotomic polynomial."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs):
        self.m = m
        phi = cyclotomic_polynomial(m)
        deg = len(phi) - 1
        c = [Fraction(x) for x in coeffs]
        if len(c) > deg:
            _, c = _poly_divmod(c, list(phi))
        c += [Fraction(0)] * (deg - len(c))
        self.coeffs = tuple(c[:deg])

    @classmethod
    def zero(cls, m: int) -> "CycloNumber":
        return cls(m, [])

    @classmethod
    def rational(cls, m: int, x) -> "CycloNumber":
        return cls(m, [Fraction(x)])

    @classmethod
    def zeta_power(cls, m: int, k: int) -> "CycloNumber":
        k %= m
        return cls(m, [Fraction(0)] * k + [Fraction(1)])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CycloNumber) and self.m == other.m
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.m, self.coeffs))

    def __add__(self, other: "CycloNumber") -> "CycloNumber":
        assert self.m == other.m
        return CycloNumber(self.m, [a + b for a, b in
                                    zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "CycloNumber":
        return CycloNumber(self.m, [-a for a in self.coeffs])

    def __sub__(self, other: "CycloNumber") -> "CycloNumber":
        return self + (-other)

    def __mul__(self, other: "CycloNumber") -> "CycloNumber":
        assert self.m == other.m
        return CycloNumber(self.m, _poly_mul(list(self.coeffs),
                                             list(other.coeffs)))

    def inverse(self) -> "CycloNumber":
        """Extended Euclid against the cyclotomic polynomial."""
        if self.is_zero():
            raise ZeroDivisionError
        r0, r1 = list(cyclotomic_polynomial(self.m)), _trim(list(self.coeffs))
        s0: Poly = []
        s1: Poly = [Fraction(1)]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            qs = _poly_mul(q, s1)
            new_s = [a - b for a, b in
                     zip(s0 + [Fraction(0)] * max(0, len(qs) - len(s0)),
                         qs + [Fraction(0)] * max(0, len(s0) - len(qs)))]
            s0, s1 = s1, _trim(new_s)
        assert len(r0) == 1, "gcd with the cyclotomic polynomial not constant"
        inv_lead = 1 / r0[0]
        return CycloNumber(self.m, [c * inv_lead for c in s0])

    def __truediv__(self, other: "CycloNumber") -> "CycloNumber":
        return self * other.inverse()

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mono = "1" if k == 0 else (f"z^{k}" if k > 1 else "z")
            bits.append(mono if c == 1 and k > 0 else
                        (f"-{mono}" if c == -1 and k > 0 else
                         (f"{c}" if k == 0 else f"{c}*{mono}")))
        return " + ".join(bits).replace("+ -", "- ")

    __repr__ = __str__


class Specialization:
    """Ring map sending q to zeta_{2e} and Q to zeta_{4e}^{e+2d}.

    Then q^2 is a primitive e-th root of unity and Q^2 = -q^{2d}, the
    parameter regime of the cyclotomic quotient with weight d.
    """

    def __init__(self, e: int, d: int):
        self.e = check_e(e)
        self.d = d
        self.m = 4 * e

    def theta(self, c: ACoeff) -> CycloNumber:
        out = CycloNumber.zero(self.m)
        for (alpha, beta), coeff in c.terms.items():
            k = (2 * alpha + (self.e + 2 * self.d) * beta) % self.m
            out = out + CycloNumber.zeta_power(self.m, k) \
                * CycloNumber.rational(self.m, coeff)
        return out

    @property
    def q0(self) -> CycloNumber:
        return CycloNumber.zeta_power(self.m, 2)

    @property
    def Q0(self) -> CycloNumber:
        return CycloNumber.zeta_power(self.m, self.e + 2 * self.d)
