"""Exact combinatorics and algebra for Hecke algebras of type B.

Subpackages cover: partition/bipartition combinatorics and 2-quotients
(`combinat`), dominance orders on bipartitions (`orders`), signed
permutations and domino insertion (`domino`), the generic Hecke algebra and
its Kazhdan-Lusztig bases and cells (`hecke`), level-2 Fock spaces (`fock`),
crystal graphs (`crystal`), canonical bases and decomposition matrices
(`canonical`), cyclotomic specializations and Specht-module decomposition
numbers (`specht`), and a command-line surface (`cli`).
"""

from .errors import BoundExceeded, InvalidArgument

INFINITY = float("inf")

__all__ = ["INFINITY", "Frozen", "Value", "bits", "check_bound", "check_e",
           "check_n", "resolve_r"]


class Value:
    """Base of the value classes.

    `_fields` names the constructor arguments in order; __repr__ lists them
    as a dataclass's does.  A class that declares `_fields` gets __eq__ when
    it is created: NotImplemented unless the other object is of exactly its
    class, else its field tuple (or its one field) compared.  A Frozen class
    also gets __hash__, the hash of the field tuple; other Values are
    unhashable.  A class that defines __eq__ itself is left alone: Kernel
    takes object's __eq__ and __hash__, so a kernel equals only itself.

    Both methods are straight-line code, generated once per class as
    dataclasses does (whose import would slow every command's start).  A
    loop over `_fields` or attrgetter closures took == on a
    SignedPermutation from 152 to 288 ns and hash() from 268 to 360 ns
    (Python 3.11), and the KL sweep hashes tens of thousands of them.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in vars(cls) or "__eq__" in vars(cls):
            return
        mine = [f"self.{f}" for f in cls._fields]
        theirs = [f"other.{f}" for f in cls._fields]
        if len(mine) == 1:
            left, right = mine[0], theirs[0]
        else:
            left, right = f"({', '.join(mine)})", f"({', '.join(theirs)})"
        source = ("def __eq__(self, other):\n"
                  "    if other.__class__ is self.__class__:\n"
                  f"        return {left} == {right}\n"
                  "    return NotImplemented\n"
                  "def __hash__(self):\n"
                  f"    return hash(({', '.join(mine)},))\n")
        methods = {}
        exec(source, {}, methods)
        for method in methods.values():
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        cls.__eq__ = methods["__eq__"]
        cls.__hash__ = methods["__hash__"] if issubclass(cls, Frozen) else None

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


def bits(x: int):
    """The positions of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


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


def check_bound(n: int, bound: int) -> None:
    """Check that the rank n is at most the bound of a computation."""
    if n > bound:
        raise BoundExceeded(f"n = {n} > bound {bound}")
