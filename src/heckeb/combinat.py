"""Partitions, bipartitions, beta-sets and the 2-quotient bijections.

The 2-quotient machinery is realized on the abacus: a partition is encoded
as a strictly decreasing set of beta-numbers of even cardinality, the beads
are split by parity into two runners, and each runner is read back as a
partition.  With the even-cardinality normalization the parity split is
stable under adding the two lowest beads, so the component assignment is
well defined:

    component 0  <-  odd beta-numbers,  bead b  ->  (b-1)/2
    component 1  <-  even beta-numbers, bead b  ->  b/2

For odd staircase index r the two quotient components are swapped.
"""

from __future__ import annotations

import functools

from . import Frozen, check_n
from .errors import CoreMismatch, InvalidArgument

EMPTY_CHARS = {"", "0", "-", "∅", "Ø"}


@functools.total_ordering
class Partition(Frozen):
    """An integer partition, stored as a weakly decreasing tuple of parts.
    Partitions compare as their tuples of parts."""

    _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()):
        p = tuple(parts)
        if not all(isinstance(x, int) and x > 0 for x in p) \
                or any(p[i] < p[i + 1] for i in range(len(p) - 1)):
            raise InvalidArgument(f"{p} is not a weakly decreasing tuple of "
                                  "positive integers")
        object.__setattr__(self, "parts", p)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.parts < other.parts
        return NotImplemented

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def part(self, i: int) -> int:
        """Part in row i (1-based); zero beyond the last row."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def with_box(self, row: int) -> "Partition":
        """Partition with one extra box in the given (1-based) row."""
        parts = list(self.parts)
        if row == len(parts) + 1:
            parts.append(1)
        else:
            parts[row - 1] += 1
        return Partition(tuple(parts))

    def without_box(self, row: int) -> "Partition":
        parts = list(self.parts)
        parts[row - 1] -= 1
        if parts[row - 1] == 0:
            parts.pop(row - 1)
        return Partition(tuple(parts))

    def cells(self):
        """All (row, column) cells, 1-based."""
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def __str__(self) -> str:
        return format_partition(self)


@functools.total_ordering
class Bipartition(Frozen):
    """An ordered pair of partitions.  Bipartitions compare as the pairs
    (first, second)."""

    _fields = ("first", "second")

    def __init__(self, first: Partition = Partition(),
                 second: Partition = Partition()):
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.first, self.second) < (other.first, other.second)
        return NotImplemented

    @property
    def size(self) -> int:
        return self.first.size + self.second.size

    def component(self, c: int) -> Partition:
        return self.first if c == 0 else self.second

    def with_component(self, c: int, p: Partition) -> "Bipartition":
        return Bipartition(p, self.second) if c == 0 else Bipartition(self.first, p)

    def swap(self) -> "Bipartition":
        return Bipartition(self.second, self.first)

    def __str__(self) -> str:
        return format_bipartition(self)


class BetaSet(Frozen):
    """Beta-numbers of a partition: a strictly decreasing tuple of
    non-negative integers of even cardinality."""

    _fields = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        e = tuple(entries)
        if not e or len(e) % 2 or e[-1] < 0 \
                or any(a <= b for a, b in zip(e, e[1:])):
            raise InvalidArgument(
                f"beta-set {e} must be strictly decreasing, non-negative "
                "and of even, positive cardinality")
        object.__setattr__(self, "entries", e)

    @classmethod
    def from_partition(cls, p: Partition, cardinality: int | None = None) -> "BetaSet":
        n = cardinality if cardinality is not None else len(p.parts) + len(p.parts) % 2
        n = max(n, 2)
        if n % 2 or n < len(p.parts):
            raise InvalidArgument(f"cardinality {n} must be even and at "
                                  f"least the {len(p.parts)} parts of {p}")
        return cls(tuple(p.part(i) + n - i for i in range(1, n + 1)))

    def to_partition(self) -> Partition:
        return _beta_partition(self.entries)


def delta_core(r: int) -> Partition:
    """The staircase 2-core (r, r-1, ..., 1); empty for r = 0."""
    if r < 0:
        raise InvalidArgument(f"r = {r} must be non-negative")
    return Partition(tuple(range(r, 0, -1)))


def _beta_partition(beads) -> Partition:
    """The partition of strictly decreasing beta-numbers b_1 > ... > b_n:
    its i-th part is b_i - (n - i).  Unlike a BetaSet, the beads of one
    abacus runner may be any number, none included."""
    n = len(beads)
    parts = tuple(b - (n - i) for i, b in enumerate(beads, start=1))
    return Partition(tuple(x for x in parts if x > 0))


def core_and_quotient(p: Partition) -> tuple[Partition, tuple[Partition, Partition]]:
    """2-core and 2-quotient of a partition, via the abacus."""
    beta = BetaSet.from_partition(p)
    odd = [b for b in beta.entries if b % 2 == 1]
    even = [b for b in beta.entries if b % 2 == 0]
    # odd and even keep the decreasing order of the beta-set
    q0 = _beta_partition([(b - 1) // 2 for b in odd])
    q1 = _beta_partition([b // 2 for b in even])
    core_beads = sorted(
        [2 * i + 1 for i in range(len(odd))] + [2 * i for i in range(len(even))],
        reverse=True)
    core = BetaSet(tuple(core_beads)).to_partition()
    return core, (q0, q1)


def q_r(p: Partition, r: int) -> Bipartition:
    """2-quotient of p as a bipartition, components swapped for odd r.

    Restricted to partitions with 2-core delta_r this is a bijection onto
    bipartitions.
    """
    core, (q0, q1) = core_and_quotient(p)
    if core != delta_core(r):
        raise CoreMismatch(f"2-core of {p} is {core}, expected {delta_core(r)}")
    b = Bipartition(q0, q1)
    return b.swap() if r % 2 == 1 else b


def q_r_inverse(b: Bipartition, r: int) -> Partition:
    """The partition with 2-core delta_r and 2-quotient b (odd-r convention
    as in q_r)."""
    quot = b.swap() if r % 2 == 1 else b
    lam0, lam1 = quot.first, quot.second
    # Bead counts per runner come from the core; grow until both runners
    # have room for their quotient component.
    n = 2 * (len(lam0.parts) + len(lam1.parts) + r + 1)
    core_beta = BetaSet.from_partition(delta_core(r), n)
    c_odd = sum(1 for x in core_beta.entries if x % 2 == 1)
    c_even = n - c_odd
    if c_odd < len(lam0.parts) or c_even < len(lam1.parts):
        raise CoreMismatch(
            f"the {n} beads of delta_{r} leave {c_odd} odd and {c_even} even "
            f"runner beads, too few for the 2-quotient {b}")
    odd = [2 * (lam0.part(i) + c_odd - i) + 1 for i in range(1, c_odd + 1)]
    even = [2 * (lam1.part(i) + c_even - i) for i in range(1, c_even + 1)]
    return BetaSet(tuple(sorted(odd + even, reverse=True))).to_partition()


@functools.lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, sorted lexicographically by part tuple."""
    check_n(n)

    def gen(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(sorted(Partition(t) for t in gen(n, n)))


@functools.lru_cache(maxsize=None)
def enumerate_bipartitions(n: int) -> tuple[Bipartition, ...]:
    """All bipartitions of total size n.

    Order: |first| descending, then first lexicographic, then second
    lexicographic (deterministic, used by golden files).
    """
    check_n(n)
    out = []
    for k in range(n, -1, -1):
        for p in partitions(k):
            for q in partitions(n - k):
                out.append(Bipartition(p, q))
    return tuple(out)


# --- text rendering, paper style: "(21;∅)", "(1;11)" -------------------

def format_partition(p: Partition) -> str:
    if not p.parts:
        return "∅"
    if all(x <= 9 for x in p.parts):
        return "".join(str(x) for x in p.parts)
    return ".".join(str(x) for x in p.parts)


def format_bipartition(b: Bipartition) -> str:
    return f"({format_partition(b.first)};{format_partition(b.second)})"


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if text in EMPTY_CHARS:
        return Partition()
    if "." in text:
        parts = tuple(int(x) for x in text.split("."))
    elif "," in text:
        parts = tuple(int(x) for x in text.split(","))
    else:
        parts = tuple(int(ch) for ch in text)
    return Partition(parts)


def parse_bipartition(text: str) -> Bipartition:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    left, _, right = text.partition(";")
    if not _:
        raise ValueError(f"no ';' separator in bipartition {text!r}")
    return Bipartition(parse_partition(left), parse_partition(right))

