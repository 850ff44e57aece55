"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Numbers are residues modulo the m-th cyclotomic polynomial with rational
coefficients; m = 4e covers the specializations sending q to a primitive
2e-th root of unity and Q to an odd power of zeta_{4e}.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction

from . import Frozen, check_e
from .errors import InvalidArgument, NonIntegralDivision
from .laurent import ACoeff, unpack

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
    """Quotient and remainder of a by b; b must have a nonzero lead."""
    a = _trim(list(a))
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    while len(a) >= len(b):
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
            if rem:
                raise NonIntegralDivision(
                    f"dividing x^{m} - 1 by Phi_{d} left the remainder "
                    f"{[str(c) for c in rem]}")
            num = q
    return tuple(num)


@functools.lru_cache(maxsize=None)
def _powers(m: int) -> tuple[tuple[int, ...], ...]:
    """x^k mod Phi_m for 0 <= k < m, as integer coefficient tuples of
    length deg Phi_m.

    Phi_m is monic with integer coefficients, so each row is integral.  A
    product of two residues has degree at most 2 deg - 2, and since Phi_m
    divides x^m - 1 its term x^k reduces by the row of k mod m."""
    phi = [int(c) for c in cyclotomic_polynomial(m)]
    deg = len(phi) - 1
    rows = []
    for k in range(m):
        if k < deg:
            row = [0] * deg
            row[k] = 1
        else:
            # x^k = x * x^{k-1}, with x^deg = -sum_{j<deg} phi_j x^j
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                row = [a - top * p for a, p in zip(row, phi)]
        rows.append(tuple(row))
    return tuple(rows)


def _exact(c):
    """A coefficient as an int when integral, else as a Fraction."""
    if type(c) is not Fraction:
        if type(c) is int:
            return c
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _tidy(coeffs) -> tuple:
    """_exact on every coefficient, with ints passed through inline."""
    return tuple(c if type(c) is int else _exact(c) for c in coeffs)


def _reduce(m: int, coeffs) -> tuple:
    """Residue mod Phi_m of a dense coefficient list of any length, with
    integral coefficients kept as int."""
    powers = _powers(m)
    deg = len(powers[0])
    out = list(coeffs[:deg])
    out += [0] * (deg - len(out))
    for k in range(deg, len(coeffs)):
        c = coeffs[k]
        if c:
            for j, p in enumerate(powers[k % m]):
                if p:
                    out[j] += c * p
    return _tidy(out)


class CycloNumber:
    """Element of Q(zeta_m), reduced modulo the m-th cyclotomic polynomial.

    coeffs has length deg Phi_m; each entry is an int, or a Fraction when
    it is not integral, so equality, hashing and rendering do not depend
    on how a value was reached."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs):
        self.m = m
        self.coeffs = _reduce(m, [_exact(x) for x in coeffs])

    @classmethod
    def _of(cls, m: int, coeffs: tuple) -> "CycloNumber":
        """A residue from coefficients already reduced and exact."""
        out = object.__new__(cls)
        out.m = m
        out.coeffs = coeffs
        return out

    @classmethod
    def zero(cls, m: int) -> "CycloNumber":
        return cls(m, [])

    @classmethod
    def rational(cls, m: int, x) -> "CycloNumber":
        return cls(m, [x])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CycloNumber) and self.m == other.m
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.m, self.coeffs))

    def _check_m(self, other: "CycloNumber") -> None:
        if self.m != other.m:
            raise InvalidArgument(
                f"Q(zeta_{self.m}) and Q(zeta_{other.m}) do not mix")

    def __add__(self, other: "CycloNumber") -> "CycloNumber":
        self._check_m(other)
        return CycloNumber._of(
            self.m, _tidy(map(operator.add, self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycloNumber":
        return CycloNumber._of(self.m, tuple(-a for a in self.coeffs))

    def __sub__(self, other: "CycloNumber") -> "CycloNumber":
        return self + (-other)

    def __mul__(self, other: "CycloNumber") -> "CycloNumber":
        """Convolution, then the top terms folded back by the power table."""
        self._check_m(other)
        a, b = self.coeffs, other.coeffs
        conv = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        return CycloNumber._of(self.m, _reduce(self.m, conv))

    def inverse(self) -> "CycloNumber":
        """Extended Euclid against the cyclotomic polynomial."""
        if self.is_zero():
            raise ZeroDivisionError
        r0 = list(cyclotomic_polynomial(self.m))
        r1 = _trim([Fraction(c) for c in self.coeffs])
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
        if len(r0) != 1:
            raise NonIntegralDivision(
                f"{self} has no inverse: its gcd with Phi_{self.m} has "
                f"degree {len(r0) - 1}")
        inv_lead = 1 / r0[0]
        return CycloNumber(self.m, [c * inv_lead for c in s0])

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


class Specialization(Frozen):
    """Ring map sending q to zeta_{2e} and Q to zeta_{4e}^{e+2d}.

    Then q^2 is a primitive e-th root of unity and Q^2 = -q^{2d}, the
    parameter regime of the cyclotomic quotient with weight d.
    """

    _fields = ("e", "d")

    def __init__(self, e: int, d: int):
        vars(self).update(e=check_e(e), d=d, m=4 * e)

    def theta(self, c: ACoeff) -> CycloNumber:
        """q^alpha Q^beta -> zeta_m^k with k = 2 alpha + (e + 2d) beta; the
        integer coefficients are gathered by k mod m and reduced once."""
        acc = [0] * self.m
        for key, coeff in c.terms.items():
            alpha, beta = unpack(key)
            acc[(2 * alpha + (self.e + 2 * self.d) * beta) % self.m] += coeff
        return CycloNumber._of(self.m, _reduce(self.m, acc))
