"""Exact combinatorics and algebra for Hecke algebras of type B.

Subpackages cover: partition/bipartition combinatorics and 2-quotients
(`combinat`), dominance orders on bipartitions (`orders`), signed
permutations and domino insertion (`domino`), the generic Hecke algebra and
its Kazhdan-Lusztig bases and cells (`hecke`), level-2 Fock spaces (`fock`),
crystal graphs (`crystal`), canonical bases and decomposition matrices
(`canonical`), cyclotomic specializations and Specht-module decomposition
numbers (`specht`), and a command-line surface (`cli`).
"""

from .errors import InvalidArgument

INFINITY = float("inf")

__all__ = ["INFINITY", "Frozen", "Value", "check_e", "check_n", "resolve_r"]


class Value:
    """Base of the value classes.  They are written by hand rather than
    with dataclasses, whose import (with inspect) and class decoration
    would add to the start of every command.
    `_fields` names the constructor arguments in order, and __repr__ lists
    them as a dataclass's does.  Each class writes its own __eq__ and
    __hash__ on its fields, since a loop over `_fields` is measurably slower
    for the group elements that the KL sweep hashes."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"


class Frozen(Value):
    """A Value whose attributes are set once, in __init__, past this
    __setattr__ (through object.__setattr__ or the instance __dict__);
    assigning or deleting one afterwards raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def resolve_r(r, n: int) -> int:
    """The staircase index r of rank n as an integer: r = inf stands for
    n - 1, the least r from which all the r-orders on Bip(n) agree."""
    if r == INFINITY:
        return max(n - 1, 0)
    if not isinstance(r, int) or r < 0:
        raise InvalidArgument(f"r = {r} must be a non-negative integer or inf")
    return r


def check_e(e: int) -> int:
    """e, the order of the root of unity q^2, checked to be at least 2."""
    if e < 2:
        raise InvalidArgument(f"e = {e} must be at least 2")
    return e


def check_n(n: int) -> int:
    """n, the rank of W_n and the size of a bipartition, checked to be
    non-negative."""
    if n < 0:
        raise InvalidArgument(f"n = {n} must be non-negative")
    return n
