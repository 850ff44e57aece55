"""Signed permutations and Garfinkle-style domino insertion.

An element of the hyperoctahedral group is stored in window notation
(w(1), ..., w(n)).  Insertion of w builds a standard domino tableau around
the staircase 2-core: the letter inserted at step i is |w(i)|, entering as a
horizontal domino in row 1 when w(i) > 0 and as a vertical domino in column
1 when w(i) < 0, followed by Garfinkle bumping of the larger letters.  The
bumping case analysis (including the one-cell "twist" collision) follows
the standard presentation of the algorithm.

The recording tableau marks, with label i, the two cells added at step i;
the identity Q(w) = P(w^{-1}) is exercised by the test suite rather than
assumed here.

The Hecke algebra works on the integer kernel of W_n (kernel(n), built once
per n on first use): the elements at positions 0..|W_n|-1 in order of
length, then window, with tables of length, of left and right
multiplication by each generator and of the inverse, so that its hot loops
index lists instead of multiplying and hashing signed permutations.  It is
built by a BFS on window tuples; group_elements walks its tables.
insertion_table(n, r) holds (S, T, lambda) by position: each element is
inserted once, and q~_r, which reads only the tableau and r, runs once per
distinct domino tableau (76 of the 768 P and Q of one r at rank 4).
"""

from __future__ import annotations

import functools
import json
from collections import deque

from . import Frozen, check_n, resolve_r
from .combinat import Bipartition, Partition, delta_core, format_bipartition
from .errors import InvalidArgument, MalformedTableau

Cell = tuple[int, int]  # (row, column), 1-based


class SignedPermutation(Frozen):
    """Element of the type B Weyl group W_n, in window notation."""

    _fields = ("window",)

    def __init__(self, window: tuple[int, ...]):
        w = tuple(window)
        if sorted(abs(x) for x in w) != list(range(1, len(w) + 1)):
            raise InvalidArgument(f"window {' '.join(map(str, w))!r} is not "
                                  f"a signed permutation of 1..{len(w)}")
        object.__setattr__(self, "window", w)

    @property
    def n(self) -> int:
        return len(self.window)

    def __call__(self, i: int) -> int:
        if i < 0:
            return -self.window[-i - 1]
        return self.window[i - 1]

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        if self.n != other.n:
            raise InvalidArgument(f"product of W_{self.n} and W_{other.n}")
        return SignedPermutation(tuple(self(other(i))
                                       for i in range(1, self.n + 1)))

    def inverse(self) -> "SignedPermutation":
        return SignedPermutation(_inverse(self.window))

    def __str__(self) -> str:
        return " ".join(str(x) for x in self.window)

    @classmethod
    def parse(cls, text: str) -> "SignedPermutation":
        try:
            return cls(tuple(int(x) for x in text.replace(",", " ").split()))
        except ValueError:
            raise InvalidArgument(f"window {text!r} has a letter that is "
                                  "not an integer") from None

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(tuple(range(1, n + 1)))

def _inverse(window: tuple[int, ...]) -> tuple[int, ...]:
    """The window of the inverse: w(j) = v gives w^{-1}(v) = j."""
    inv = [0] * len(window)
    for j, v in enumerate(window, 1):
        inv[abs(v) - 1] = j if v > 0 else -j
    return tuple(inv)


@functools.lru_cache(maxsize=None)
def group_elements(n: int) -> dict[SignedPermutation, tuple[int, tuple[int, ...]]]:
    """BFS of W_n over right multiplication by the generators.

    Maps each element to (length, reduced word), the word listing generator
    indices (0 for t) left to right.  The BFS explores generator indices in
    increasing order, so the stored word is a deterministic normal form: the
    word of the element's BFS parent w s_i, i = last[w], followed by i.  The
    BFS meets the elements of each length in increasing order of their words.
    """
    kern = kernel(n)
    words = kern.along_words((), lambda word, i: word + (i,))
    return {w: (length, word) for length, word, w
            in sorted(zip(kern.length, words, kern.elements))}


class Kernel(Frozen):
    """W_n on the positions 0..|W_n|-1, in order of length, then window.

    right[i][k] and left[i][k] are the positions of elements[k] s_i and
    s_i elements[k] (i = 0 for t); a product by a generator is shorter
    exactly when its position is smaller.  last[k] is the last letter of the
    reduced word of elements[k] (-1 at the identity).  A kernel equals only
    itself.
    """

    _fields = ("elements", "index", "length", "last", "right", "left",
               "inverse")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, elements: tuple[SignedPermutation, ...],
                 index: dict[SignedPermutation, int],
                 length: tuple[int, ...], last: tuple[int, ...],
                 right: tuple[tuple[int, ...], ...],
                 left: tuple[tuple[int, ...], ...],
                 inverse: tuple[int, ...]):
        vars(self).update(elements=elements, index=index, length=length,
                          last=last, right=right, left=left, inverse=inverse)

    def along_words(self, start, step) -> list:
        """[x_0, ..., x_{|W_n|-1}]: x_0 = start at the identity and
        x_k = step(x_p, i), where elements[k] = elements[p] s_i with
        i = last[k], extending a table along reduced words."""
        out = [start]
        for k in range(1, len(self.elements)):
            i = self.last[k]
            out.append(step(out[self.right[i][k]], i))
        return out


@functools.lru_cache(maxsize=None)
def kernel(n: int) -> Kernel:
    """The integer kernel of W_n, from a BFS on windows over right
    multiplication: w s_i swaps slots i and i + 1, w t negates slot 1.
    Left products come from the inverse, s_i w = (w^{-1} s_i)^{-1}."""
    def times(w: tuple[int, ...], i: int) -> tuple[int, ...]:
        return (-w[0],) + w[1:] if i == 0 else \
            w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:]

    check_n(n)
    found = {tuple(range(1, n + 1)): (0, -1)}    # window -> (length, last)
    queue = deque(found)
    while queue:
        w = queue.popleft()
        depth = found[w][0] + 1
        for i in range(n):
            ws = times(w, i)
            if ws not in found:
                found[ws] = (depth, i)
                queue.append(ws)
    windows = sorted(found, key=lambda w: (found[w][0], w))
    pos = {w: k for k, w in enumerate(windows)}
    right = tuple(tuple(pos[times(w, i)] for w in windows) for i in range(n))
    inverse = tuple(pos[_inverse(w)] for w in windows)
    elements = tuple(map(SignedPermutation, windows))
    length, last = zip(*map(found.get, windows))
    left = tuple(tuple(inverse[table[x]] for x in inverse) for table in right)
    return Kernel(elements, {w: k for k, w in enumerate(elements)},
                  length, last, right, left, inverse)


def length(w: SignedPermutation) -> int:
    return group_elements(w.n)[w][0]


def reduced_word(w: SignedPermutation) -> tuple[int, ...]:
    return group_elements(w.n)[w][1]


def _len_key(w: SignedPermutation):
    """Sort key of W_n: length, then window."""
    return (length(w), w.window)


# --- domino tableaux ----------------------------------------------------

class DominoTableau(Frozen):
    """Standard domino tableau on top of a staircase core.

    dominoes maps each entry to a frozenset of its two (adjacent) cells.
    """

    _fields = ("core", "dominoes")

    def __init__(self, core: Partition,
                 dominoes: tuple[tuple[int, frozenset[Cell]], ...]):
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "dominoes", dominoes)

    def to_text(self) -> str:
        grid = {}
        for (i, j) in self.core.cells():
            grid[(i, j)] = "."
        for label, dom in self.dominoes:
            for cell in dom:
                grid[cell] = str(label)
        if not grid:
            return "(empty)"
        rows = max(i for i, _ in grid)
        cols = max(j for _, j in grid)
        width = max(len(v) for v in grid.values())
        lines = []
        for i in range(1, rows + 1):
            lines.append(" ".join(
                grid.get((i, j), "").rjust(width)
                for j in range(1, cols + 1)).rstrip())
        return "\n".join(lines)


# The integer core of insertion: a domino is (row, column, horizontal), its
# top-left cell and orientation, and a shape is the list of its row lengths.
Domino = tuple[int, int, bool]


def _cells(dom: Domino) -> frozenset[Cell]:
    i, j, horizontal = dom
    return frozenset({(i, j), (i, j + 1) if horizontal else (i + 1, j)})


def _place(rows: list[int], dom: Domino) -> None:
    """Add dom to the shape with row lengths rows, in place.  Its cells must
    be free and the shape must stay a Young diagram: dom starts right after
    the end of each row it lies in, below a row that reaches its end."""
    i, j, horizontal = dom
    last = i if horizontal else i + 1
    rows.extend([0] * (last - len(rows)))
    end = j + horizontal
    if rows[i - 1] != j - 1 or rows[last - 1] != j - 1 \
            or (i > 1 and rows[i - 2] < end):
        raise MalformedTableau(f"domino at ({i}, {j}) does not extend the "
                               f"shape {rows} to a Young diagram")
    rows[i - 1] = rows[last - 1] = end


def _bump(rows: list[int], dom: Domino) -> Domino:
    """Where dom lands on the shape with row lengths rows (Garfinkle
    bumping): in place if both cells are free; at the end of the next row
    (horizontal) or column (vertical) if both are covered; flipped around
    its free cell (the "twist") if only its top-left cell is covered."""
    i, j, horizontal = dom
    top = i <= len(rows) and rows[i - 1] >= j
    k = i if horizontal else i + 1
    if not (k <= len(rows) and rows[k - 1] >= j + horizontal):
        if not top:
            return dom
        return (i, j + 1, False) if horizontal else (i + 1, j, True)
    if not top:
        raise MalformedTableau(f"domino at ({i}, {j}) collides with the "
                               f"shape {rows} away from its top-left cell")
    if horizontal:
        return i + 1, (rows[i] if i < len(rows) else 0) + 1, True
    return sum(1 for x in rows if x > j) + 1, j + 1, False


def _grown(before: list[int], after: list[int]) -> Domino:
    """The one domino by which the shape grew from before to after: one row
    grew by 2, or two consecutive rows of equal length grew by 1 each."""
    padded = before + [0] * (len(after) - len(before))
    grew = [(i, a, b - a) for i, (a, b) in enumerate(zip(padded, after), 1)
            if a != b]
    if grew:
        i, a, _ = grew[0]
        if grew in ([(i, a, 2)], [(i, a, 1), (i + 1, a, 1)]):
            return i, a + 1, len(grew) == 1
    raise MalformedTableau(f"the shape {before} grew to {after}, "
                           "not by one domino")


def _insert_letter(core: list[int], p: list, shape: list[int], v: int) \
        -> tuple[list, list[int], Domino]:
    """One letter v of domino insertion around core: from P (entry k at
    index k - 1, None where not yet inserted) and its shape, the new P, its
    shape and the domino Q grows by; p and shape are left as they are.
    Letter m = |v| goes to the end of row 1 (horizontal) or column 1
    (vertical) of the entries below it; the larger entries bump in order."""
    m = abs(v)
    p = list(p)
    rows = list(core)
    for dom in p[:m - 1]:
        if dom is not None:
            _place(rows, dom)
    # rows has no zero entry
    p[m - 1] = (1, (rows[0] if rows else 0) + 1, True) if v > 0 \
        else (len(rows) + 1, 1, False)
    _place(rows, p[m - 1])
    for k in range(m, len(p)):
        if p[k] is not None:
            p[k] = _bump(rows, p[k])
            _place(rows, p[k])
    return p, rows, _grown(shape, rows)


def _insert(window: tuple[int, ...], r: int) \
        -> tuple[list[Domino], list[Domino]]:
    """Domino insertion of a window around delta_r: (P, Q), entry k at
    index k - 1, one _insert_letter per letter."""
    core = list(range(r, 0, -1))
    p: list = [None] * len(window)
    q: list[Domino] = []
    shape = core
    for v in window:
        p, shape, dom = _insert_letter(core, p, shape, v)
        q.append(dom)
    return p, q


def insert(w: SignedPermutation, r) -> tuple[DominoTableau, DominoTableau]:
    """Domino insertion: returns (P, Q) with equal shape and core delta_r."""
    rr = resolve_r(r, w.n)
    core = delta_core(rr)
    return tuple(DominoTableau(core, tuple(enumerate(map(_cells, t), 1)))
                 for t in _insert(w.window, rr))


# --- standard bitableaux ------------------------------------------------

class StandardBitableau(Frozen):
    """Pair of fillings whose entries partition {1..n}; rows and columns
    increase within each component."""

    _fields = ("first", "second")

    def __init__(self, first: tuple[tuple[int, ...], ...],
                 second: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)

    @property
    def n(self) -> int:
        return sum(len(r) for r in self.first) + sum(len(r) for r in self.second)

    @property
    def shape(self) -> Bipartition:
        return Bipartition(Partition(tuple(len(r) for r in self.first)),
                           Partition(tuple(len(r) for r in self.second)))

    def validate(self) -> None:
        entries = sorted(x for comp in (self.first, self.second)
                         for row in comp for x in row)
        if entries != list(range(1, self.n + 1)):
            raise MalformedTableau(f"entries {entries} are not 1..{self.n}")
        for comp in (self.first, self.second):
            for row in comp:
                if list(row) != sorted(row):
                    raise MalformedTableau("row not increasing")
            for a, b in zip(comp, comp[1:]):
                if len(b) > len(a):
                    raise MalformedTableau("shape not a partition")
                if any(b[j] <= a[j] for j in range(len(b))):
                    raise MalformedTableau("column not increasing")

    def to_text(self) -> str:
        def comp_text(comp):
            if not comp:
                return "∅"
            return " / ".join(" ".join(str(x) for x in row) for row in comp)
        return f"[{comp_text(self.first)} ; {comp_text(self.second)}]"


def _qtilde(r: int, dominoes: list[tuple[int, Domino]]) -> StandardBitableau:
    """q~_r of the dominoes (entry, domino), in increasing entry order,
    on top of delta_r.

    Row i of a shape is the bead at lambda_i - i, the content of the row's
    last cell.  Adding domino k moves one bead two places along its
    runner: a horizontal domino the bead of its row, a vertical one the
    bead of its lower row, up to the upper row's new position.  Either way
    the bead lands on p, the largest content of the domino's cells: j - i
    plus one for a horizontal domino at (i, j).  Box k goes to component 0
    for odd p and 1 for even p, swapped for odd r as in combinat.q_r, in
    the row given by the bead's rank on its runner: one plus the number of
    beads above p on the same runner."""
    # no shape has more rows than this; the beads of the rows below never
    # move and lie below every p
    rows = r + 2 * len(dominoes)
    beads = {max(r + 1 - i, 0) - i for i in range(1, rows + 1)}
    comps: tuple[list[list[int]], list[list[int]]] = ([], [])
    for k, (i, j, horizontal) in dominoes:
        p = j - i + horizontal
        if p - 2 not in beads or p in beads:
            raise MalformedTableau(f"entry {k} moves no bead two places")
        beads.remove(p - 2)
        beads.add(p)
        comp = comps[(p + r + 1) % 2]
        row = sum(1 for b in beads if b > p and (b - p) % 2 == 0)
        if row == len(comp):
            comp.append([])
        comp[row].append(k)
    out = StandardBitableau(tuple(map(tuple, comps[0])),
                            tuple(map(tuple, comps[1])))
    out.validate()
    return out


def s_t_lambda(w: SignedPermutation, r) -> tuple[StandardBitableau,
                                                 StandardBitableau,
                                                 Bipartition]:
    """(S_r(w), T_r(w), lambda_r(w))."""
    rr = resolve_r(r, w.n)
    s, t = (_qtilde(rr, list(enumerate(x, 1))) for x in _insert(w.window, rr))
    return s, t, s.shape


def insertion_table(n: int, r) -> tuple[tuple, ...]:
    """s_t_lambda(w, r) of each element w of kernel(n), by position.

    The table of every r >= n - 1 equals that of r = n - 1, the r that
    r = inf resolves to, and the tables below it all differ (compared for
    n <= 5 and r <= n + 3), so it is cached under min(r, n - 1): at most n
    entries per rank."""
    n = check_n(n)
    return _insertion_table(n, min(resolve_r(r, n), max(n - 1, 0)))


@functools.lru_cache(maxsize=None)
def _insertion_table(n: int, r: int) -> tuple[tuple, ...]:
    """The windows are inserted in increasing order, so each window shares
    its longest common prefix with the one before it, and the (P, shape)
    after each letter of that prefix, with its part of Q, is reused: each
    prefix is inserted once, sum_k 2^k n!/(n-k)! letters for k = 1..n
    (632 at rank 4, 6,330 at rank 5) against n |W_n| one window at a time.
    The table shares one bitableau object per distinct tableau and one
    shape object per bitableau."""
    elements = kernel(n).elements
    core = list(range(r, 0, -1))
    # (P, shape) after each prefix of the last window, and its Q
    states: list[tuple[list, list[int]]] = [([None] * n, core)]
    grown: list[Domino] = []
    last: tuple[int, ...] = ()
    image: dict[tuple[Domino, ...], tuple] = {}    # tableau -> (q~_r, shape)
    table: list = [None] * len(elements)
    for w in sorted(range(len(elements)), key=lambda k: elements[k].window):
        window = elements[w].window
        k = 0
        while k < len(last) and window[k] == last[k]:
            k += 1
        del states[k + 1:], grown[k:]
        for v in window[k:]:
            p, shape, dom = _insert_letter(core, *states[-1], v)
            states.append((p, shape))
            grown.append(dom)
        last = window
        p, q = tuple(states[-1][0]), tuple(grown)
        for x in (p, q):
            if x not in image:
                s = _qtilde(r, list(enumerate(x, 1)))
                image[x] = (s, s.shape)
        table[w] = (image[p][0], image[q][0], image[p][1])
    return tuple(table)


def stl_json(w: SignedPermutation, r) -> str:
    s, t, lam = s_t_lambda(w, r)
    return json.dumps({
        "schema": "1",
        "w": str(w),
        "S": [list(map(list, s.first)), list(map(list, s.second))],
        "T": [list(map(list, t.first)), list(map(list, t.second))],
        "shape": format_bipartition(lam),
    }, ensure_ascii=False, indent=2)
