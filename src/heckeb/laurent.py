"""Sparse exact Laurent polynomials.

Two rings live here, sharing the ring code of the base class Laurent:

* ACoeff -- the group ring of Z^2 written multiplicatively, i.e. Laurent
  polynomials in q = e^a and Q = e^b (a = (1,0), b = (0,1)).  A total order
  on Z^2 is induced by an irrational slope xi, realized exactly by a
  rational stand-in; comparisons that would tie reveal the stand-in as
  unfaithful and raise instead of ordering arbitrarily.

  An exponent (alpha, beta) is stored as the single integer key
  alpha * 2^16 + beta (pack / unpack), valid for |beta| < 2^15.  Keys add
  as the pairs do, negate as they do, and sort in the lexicographic order
  of the pairs, so a product adds ints, bar negates keys and a polynomial
  prints as it would from pairs.  A sum of two keys decodes to the sum of
  the pairs only while the beta of the sum stays in range; every exponent
  met in H_n lies within l(w_0) = n^2 (see hecke), far inside it.

* VPoly -- Laurent polynomials in the crystal variable v, the coefficients
  of the Fock space.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable
from fractions import Fraction

from . import Frozen
from .errors import InvalidArgument, InvalidSlope, IrrationalityViolation

_SHIFT = 16
_HALF = 1 << 15
_MASK = (1 << _SHIFT) - 1


def pack(alpha: int, beta: int) -> int:
    """The key of the exponent q^alpha Q^beta; |beta| < 2^15."""
    if not -_HALF < beta < _HALF:
        raise InvalidArgument(
            f"exponent ({alpha}, {beta}): |{beta}| >= 2^15 has no key")
    return (alpha << _SHIFT) + beta


def unpack(key: int) -> tuple[int, int]:
    """The exponent pair (alpha, beta) of a key."""
    beta = ((key + _HALF) & _MASK) - _HALF
    return (key - beta) >> _SHIFT, beta


class Laurent:
    """Sparse integer Laurent polynomial: a dict from integer exponents to
    nonzero integer coefficients.  Products add exponents and bar negates
    them; a subclass fixes what an exponent means and how a monomial is
    written."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {g: c for g, c in (terms or {}).items() if c != 0}

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for g, c in other.terms.items():
            out[g] = out.get(g, 0) + c
        return type(self)(out)

    def __neg__(self):
        return type(self)({g: -c for g, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out: dict[int, int] = {}
        add_product(out, self.terms.items(), other.terms.items())
        return type(self)(out)

    def bar(self):
        """The involution exponent -> -exponent."""
        return type(self)({-g: c for g, c in self.terms.items()})

    def _monomial_text(self, exp) -> str:
        """The monomial of exponent exp; empty for the unit."""
        raise NotImplementedError

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exp in sorted(self.terms):
            c = self.terms[exp]
            mono = self._monomial_text(exp)
            if not mono:
                bits.append(f"{c}")
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c}*{mono}")
        return " + ".join(bits).replace("+ -", "- ")

    __repr__ = __str__


class ACoeff(Laurent):
    """Integer Laurent polynomial in q and Q (sparse), keyed by pack.

    An ACoeff may be shared: hecke.kl_basis gives one object per distinct
    coefficient to every C_w that holds it.  Its terms are therefore never
    changed in place; arithmetic returns a new ACoeff."""

    __slots__ = ()

    @classmethod
    def integer(cls, c: int) -> "ACoeff":
        return cls({0: c})

    @classmethod
    def _of(cls, terms: dict[int, int]) -> "ACoeff":
        """An ACoeff owning terms, which has no zero coefficient."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    def _monomial_text(self, exp: int) -> str:
        a, b = unpack(exp)
        return "*".join(
            ([] if a == 0 else [f"q^{a}" if a != 1 else "q"])
            + ([] if b == 0 else [f"Q^{b}" if b != 1 else "Q"]))


A_ZERO = ACoeff()
A_ONE = ACoeff.integer(1)


def add_product(acc: dict[int, int], x: Iterable[tuple[int, int]],
                y: Collection[tuple[int, int]], sign: int = 1) -> None:
    """acc += sign * x * y, in place; x and y are (exponent, coefficient)
    pairs, such as dict.items() or an interned tuple of hecke's sweep.

    The working form of a Laurent polynomial for a loop that owns acc;
    entries that cancel stay as zeros, which the constructor drops."""
    for k1, c1 in x:
        c1 *= sign
        for k2, c2 in y:
            k = k1 + k2
            acc[k] = acc.get(k, 0) + c1 * c2


class XiOrder(Frozen):
    """Total order on Z^2 given by (alpha, beta) positive iff
    alpha + xi*beta > 0, for an exact rational xi standing in for an
    irrational slope.  Orders are equal when their slopes are, which makes
    them cache keys."""

    _fields = ("xi",)

    def __init__(self, xi: Fraction):
        if xi <= 0:
            raise InvalidSlope(f"xi = {xi} must be positive")
        if xi.denominator == 1:
            raise InvalidSlope(f"xi = {xi} must not be an integer")
        object.__setattr__(self, "xi", xi)
        # sign() compares on these integers, read off xi once
        object.__setattr__(self, "_num", xi.numerator)
        object.__setattr__(self, "_den", xi.denominator)

    @classmethod
    def for_r(cls, r: int) -> "XiOrder":
        """Order with floor(xi) = r, at xi = r + 1/101.  The offset has a
        large denominator so that no exponent pair of modest size can tie;
        a tie raises IrrationalityViolation and asks for a perturbed xi."""
        return cls(Fraction(r) + Fraction(1, 101))

    @property
    def r(self) -> int:
        return int(self.xi)

    def sign(self, key: int) -> int:
        """The sign of alpha + xi*beta for the exponent of key."""
        a, b = unpack(key)
        val = a * self._den + b * self._num
        if val == 0 and key:
            raise IrrationalityViolation(
                f"gamma = {(a, b)} ties at xi = {self.xi}; perturb xi")
        return (val > 0) - (val < 0)

    def symmetric_completion(self, c: ACoeff) -> ACoeff:
        """Bar-fixed element matching c on non-negative exponents: the
        constant term plus e^gamma + e^{-gamma} for each positive gamma."""
        out = {}
        for g, cc in c.terms.items():
            s = self.sign(g)
            if s >= 0:
                out[g] = cc
            if s > 0:
                out[-g] = cc
        return ACoeff(out)


class VPoly(Laurent):
    """Integer Laurent polynomial in v (sparse)."""

    __slots__ = ()

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "VPoly":
        return cls({exp: coeff})

    @classmethod
    def integer(cls, c: int) -> "VPoly":
        return cls({0: c})

    def in_v_zv(self) -> bool:
        """All exponents strictly positive (element of v Z[v])."""
        return all(e > 0 for e in self.terms)

    def symmetric_completion(self) -> "VPoly":
        """Bar-fixed polynomial agreeing with self in degrees <= 0:
        a_0 + sum_{j>0} a_{-j} (v^j + v^{-j})."""
        out = {0: self.terms.get(0, 0)}
        for e, c in self.terms.items():
            if e < 0:
                out[e] = c
                out[-e] = out.get(-e, 0) + c
        return VPoly(out)

    def at_one(self) -> int:
        return sum(self.terms.values())

    def _monomial_text(self, exp: int) -> str:
        return "" if exp == 0 else "v" if exp == 1 else f"v^{exp}"


V_ONE = VPoly.integer(1)

