import functools
import math
import re
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

from heckeb import INFINITY, domino
from heckeb.combinat import Partition, delta_core, format_bipartition, q_r
from heckeb.domino import (DominoTableau, SignedPermutation,
                           StandardBitableau, group_elements, insert,
                           insertion_table, kernel, length, reduced_word,
                           resolve_r, s_t_lambda)
from heckeb.errors import InvalidArgument, MalformedTableau

from hook_lengths import bipartitions_of_shape_count
from oracles import (generator, qtilde_r, shape_at, staircase_index,
                     tableau_entries, validate_tableau)


def bfs_group_elements(n):
    """Reference BFS of W_n over right multiplication by the generators,
    as products of signed permutations: element -> (length, reduced word)."""
    gens = [generator(n, i) for i in range(n)]
    e = SignedPermutation.identity(n)
    out = {e: (0, ())}
    queue = deque([e])
    while queue:
        w = queue.popleft()
        length, word = out[w]
        for i, g in enumerate(gens):
            wg = w * g
            if wg not in out:
                out[wg] = (length + 1, word + (i,))
                queue.append(wg)
    return out


def quotient_chain_qtilde_r(d):
    """Reference q~_r: the 2-quotients of the chain of sub-shapes of d,
    entry k placed in the one box by which they grow at step k."""
    r = staircase_index(d.core)
    comps = [[], []]
    prev = q_r(d.core, r)
    for k in tableau_entries(d):
        cur = q_r(shape_at(d, k), r)
        grown = [(c, i) for c in (0, 1)
                 for i in range(1, len(cur.component(c).parts) + 1)
                 if cur.component(c).part(i) != prev.component(c).part(i)]
        assert len(grown) == 1
        c, row = grown[0]
        assert cur.component(c).part(row) == prev.component(c).part(row) + 1
        if row == len(comps[c]) + 1:
            comps[c].append([])
        comps[c][row - 1].append(k)
        prev = cur
    return StandardBitableau(tuple(map(tuple, comps[0])),
                             tuple(map(tuple, comps[1])))


def verify_insertion_bijection(n, r):
    """Exhaustive check that w -> (S, T) is a bijection onto same-shape
    bitableau pairs, with |W_n| = 2^n n!."""
    seen = {}
    shapes = {}
    for w, (s, t, lam) in zip(kernel(n).elements, insertion_table(n, r)):
        if s.shape != t.shape:
            return {"ok": False, "reason": f"shape mismatch at {w}"}
        if (s, t) in seen:
            return {"ok": False, "reason": f"collision {w} vs {seen[s, t]}"}
        seen[s, t] = w
        shapes[lam] = shapes.get(lam, 0) + 1
    expected = 2 ** n * functools.reduce(lambda a, b: a * b, range(1, n + 1), 1)
    ok = len(seen) == expected
    return {
        "ok": ok,
        "count": len(seen),
        "expected": expected,
        "per_shape": {format_bipartition(k): v for k, v in sorted(shapes.items())},
    }


class SetShape:
    """Row/column lengths of a growing Young diagram, as cell sets."""

    def __init__(self, cells):
        self.cells = set(cells)
        self.rows = {}
        self.cols = {}
        for (i, j) in self.cells:
            self.rows[i] = max(self.rows.get(i, 0), j)
            self.cols[j] = max(self.cols.get(j, 0), i)

    def row(self, i):
        return self.rows.get(i, 0)

    def col(self, j):
        return self.cols.get(j, 0)

    def add(self, dom):
        for (i, j) in dom:
            assert (i, j) not in self.cells
            self.cells.add((i, j))
            self.rows[i] = max(self.rows.get(i, 0), j)
            self.cols[j] = max(self.cols.get(j, 0), i)


def is_horizontal(dom):
    (a, _), (c, _) = sorted(dom)
    return a == c


def set_insert_letter(dominoes, core, m, horizontal):
    """Insert letter m into a tableau of cell sets, bumping larger letters."""
    smaller = {l: d for l, d in dominoes.items() if l < m}
    shape = SetShape(set(core.cells()).union(*smaller.values())
                     if smaller else set(core.cells()))
    if horizontal:
        c = shape.row(1)
        new = frozenset({(1, c + 1), (1, c + 2)})
    else:
        rr = shape.col(1)
        new = frozenset({(rr + 1, 1), (rr + 2, 1)})
    current = dict(smaller)
    current[m] = new
    shape.add(new)
    for label in sorted(l for l in dominoes if l > m):
        dom = dominoes[label]
        inter = dom & shape.cells
        if not inter:
            placed = dom
        elif len(inter) == 2:
            if is_horizontal(dom):
                i = next(iter(dom))[0] + 1
                c = shape.row(i)
                placed = frozenset({(i, c + 1), (i, c + 2)})
            else:
                j = next(iter(dom))[1] + 1
                rr = shape.col(j)
                placed = frozenset({(rr + 1, j), (rr + 2, j)})
        else:
            (i, j) = min(dom)
            assert inter == {(i, j)}, (dom, inter)
            if is_horizontal(dom):
                placed = frozenset({(i, j + 1), (i + 1, j + 1)})
            else:
                placed = frozenset({(i + 1, j), (i + 1, j + 1)})
        current[label] = placed
        shape.add(placed)
    return current


def set_insert(w, r):
    """Reference domino insertion on cell sets: (P, Q)."""
    core = delta_core(resolve_r(r, w.n))
    dominoes = {}
    recording = {}
    for step in range(1, w.n + 1):
        v = w(step)
        before = set(core.cells()).union(*dominoes.values())
        dominoes = set_insert_letter(dominoes, core, abs(v), v > 0)
        after = set(core.cells()).union(*dominoes.values())
        assert len(after - before) == 2
        recording[step] = frozenset(after - before)
    return (DominoTableau(core, tuple(sorted(dominoes.items()))),
            DominoTableau(core, tuple(sorted(recording.items()))))


class TestSignedPermutation:
    def test_parse_str_roundtrip(self):
        w = SignedPermutation.parse("-1 3 2")
        assert str(w) == "-1 3 2"
        assert w(1) == -1 and w(-1) == 1

    def test_group_order(self):
        for n in range(1, 5):
            assert len(group_elements(n)) == 2 ** n * \
                __import__("math").factorial(n)

    def test_reduced_words(self):
        for n in range(1, 4):
            for w in group_elements(n):
                word = reduced_word(w)
                assert len(word) == length(w)
                acc = SignedPermutation.identity(n)
                for i in word:
                    acc = acc * generator(n, i)
                assert acc == w

    def test_inverse(self):
        for w in group_elements(3):
            assert w * w.inverse() == SignedPermutation.identity(3)
            assert length(w) == length(w.inverse())


    @pytest.mark.parametrize("text", ["1 x 2", "-1;3", "1.5 2", "- 1"])
    def test_parse_rejects_a_non_integer_letter(self, text):
        with pytest.raises(InvalidArgument, match=re.escape(repr(text))):
            SignedPermutation.parse(text)

    @pytest.mark.parametrize("window", [(1, 1), (1, 3), (0,), (2,), (-2, 2)])
    def test_rejects_non_permutation(self, window):
        with pytest.raises(InvalidArgument):
            SignedPermutation(window)

    @pytest.mark.parametrize("i", [-1, 3])
    def test_generator_index_checked(self, i):
        with pytest.raises(InvalidArgument):
            generator(3, i)

    def test_product_ranks_checked(self):
        with pytest.raises(InvalidArgument):
            SignedPermutation.identity(2) * SignedPermutation.identity(3)

    def test_negative_rank_rejected(self):
        with pytest.raises(InvalidArgument):
            group_elements(-1)
        assert list(group_elements(0)) == [SignedPermutation(())]

    def test_resolve_r(self):
        assert resolve_r(INFINITY, 4) == 3 and resolve_r(2, 4) == 2
        with pytest.raises(InvalidArgument):
            resolve_r(-1, 4)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_group_elements_matches_bfs(n):
    # the same elements, lengths and words, in the same order
    assert list(group_elements(n).items()) == \
        list(bfs_group_elements(n).items())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
class TestKernel:
    def test_order_and_index(self, n):
        kern = kernel(n)
        bfs = bfs_group_elements(n)
        assert list(kern.elements) == sorted(
            bfs, key=lambda w: (bfs[w][0], w.window))
        assert all(kern.index[w] == k for k, w in enumerate(kern.elements))

    def test_length_and_last_letter(self, n):
        kern = kernel(n)
        bfs = bfs_group_elements(n)
        for k, w in enumerate(kern.elements):
            depth, word = bfs[w]
            assert kern.length[k] == depth == len(word)
            assert kern.last[k] == (word[-1] if word else -1)

    def test_tables_match_products(self, n):
        kern = kernel(n)
        gens = [generator(n, i) for i in range(n)]
        e = SignedPermutation.identity(n)
        for k, w in enumerate(kern.elements):
            assert kern.elements[kern.inverse[k]] == w.inverse()
            assert w * kern.elements[kern.inverse[k]] == e
            for i, g in enumerate(gens):
                assert kern.elements[kern.right[i][k]] == w * g
                assert kern.elements[kern.left[i][k]] == g * w

    def test_along_words_rebuilds_elements(self, n):
        kern = kernel(n)
        gens = [generator(n, i) for i in range(n)]
        assert kern.along_words(SignedPermutation.identity(n),
                                lambda w, i: w * gens[i]) == \
            list(kern.elements)


# n -> (distinct tableaux, tableaux) among the P and Q of each element of
# W_n for r = 0..n, or r = 0, 1 at n = 5
INSERTED_TABLEAUX = {1: (4, 8), 2: (18, 48), 3: (80, 384), 4: (380, 3840),
                     5: (624, 15360)}
# n -> standard bitableaux of size n, the distinct S and T of insertion
BITABLEAUX = {0: 1, 1: 2, 2: 6, 3: 20, 4: 76, 5: 312}


class TestInsertion:
    @pytest.mark.parametrize("r", [0, 1, 2, 3, INFINITY])
    def test_bijection_and_shape(self, r):
        # (3.2): w -> (S, T) is a bijection onto same-shape pairs
        for n in range(1, 5):
            seen = set()
            per_shape = {}
            sbt_counts = bipartitions_of_shape_count(n)
            for w in group_elements(n):
                s, t, lam = s_t_lambda(w, r)
                assert s.shape == t.shape == lam
                seen.add((s, t))
                per_shape[lam] = per_shape.get(lam, 0) + 1
            assert len(seen) == len(group_elements(n))
            for lam, count in per_shape.items():
                assert count == sbt_counts[lam] ** 2

    @pytest.mark.parametrize("r", [0, 1, 2, INFINITY])
    def test_symmetry(self, r):
        # (3.3): Q_r(w) = P_r(w^{-1}), hence T_r(w) = S_r(w^{-1})
        for n in range(1, 5):
            for w in group_elements(n):
                p, q = insert(w, r)
                p_inv, _ = insert(w.inverse(), r)
                assert q == p_inv

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_diagram_commutes(self, r):
        # (3.1): the bitableau of P is computed through the quotient chain
        for n in range(1, 5):
            for w in group_elements(n):
                p, _ = insert(w, r)
                validate_tableau(p)
                s = qtilde_r(p)
                s.validate()
                assert s == s_t_lambda(w, r)[0]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_qtilde_r_matches_quotient_chain(self, n):
        # P and Q of every element for each r, each distinct tableau once
        inserted = [d for r in (range(n + 1) if n < 5 else (0, 1))
                    for w in group_elements(n) for d in insert(w, r)]
        tableaux = set(inserted)
        assert (len(tableaux), len(inserted)) == INSERTED_TABLEAUX[n]
        for d in tableaux:
            assert qtilde_r(d) == quotient_chain_qtilde_r(d)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_set_insertion(self, n):
        # s_t_lambda runs the integer core end to end; qtilde_r on the
        # reference tableaux is checked against the quotient chain above
        for r in range(n + 1) if n < 5 else (0, 1):
            for w in group_elements(n):
                p, q = set_insert(w, r)
                assert insert(w, r) == (p, q)
                assert s_t_lambda(w, r)[:2] == (qtilde_r(p), qtilde_r(q))

    def test_qtilde_r_rejects_a_detached_domino(self):
        # a vertical domino in rows 2 and 3 of the empty shape
        d = DominoTableau(Partition(), ((1, frozenset({(2, 1), (3, 1)})),))
        with pytest.raises(MalformedTableau):
            qtilde_r(d)

    def test_stability_for_large_r(self):
        # S_r, T_r, and the shape stabilize once r >= n-1
        for n in range(1, 5):
            for w in group_elements(n):
                ref = s_t_lambda(w, INFINITY)
                for r in range(n - 1, n + 2):
                    assert s_t_lambda(w, r) == ref

    def test_report(self):
        report = verify_insertion_bijection(3, 0)
        assert report["ok"]
        assert report["count"] == report["expected"] == 48


@pytest.mark.parametrize("n, r", [(n, r) for n in range(5)
                                  for r in (*range(n + 1), INFINITY)]
                         + [(5, 0), (5, 1)])
class TestInsertionTable:
    def test_matches_s_t_lambda(self, n, r):
        assert list(insertion_table(n, r)) == \
            [s_t_lambda(w, r) for w in kernel(n).elements]

    def test_one_object_per_tableau(self, n, r):
        # equal bitableaux are one object, and the shape of S is that of
        # every entry holding S
        table = insertion_table(n, r)
        first, shape = {}, {}
        for s, t, lam in table:
            assert first.setdefault(s, s) is s
            assert first.setdefault(t, t) is t
            assert shape.setdefault(id(s), lam) is lam
        assert len(first) == BITABLEAUX[n]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_insertion_table_resolves_r_before_the_cache(n):
    assert insertion_table(n, INFINITY) is insertion_table(n, max(n - 1, 0))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_insertion_table_keeps_one_entry_from_n_minus_1(n):
    # every r >= n - 1 shares the table of r = n - 1, which equals the
    # table built at that r
    domino._insertion_table.cache_clear()
    rs = range(n - 1, n + 4)
    tables = [insertion_table(n, r) for r in rs]
    assert domino._insertion_table.cache_info().currsize == 1
    assert all(table is tables[0] for table in tables)
    assert all(tables[0] == domino._insertion_table.__wrapped__(n, r)
               for r in rs)


def test_insertion_table_inserts_each_prefix_once(monkeypatch):
    # the windows share their prefixes: one letter per prefix of length
    # k = 1..4, 2^k 4!/(4 - k)! of them, against 4 |W_4| = 1,536 letters
    # inserted one window at a time
    letters = []
    insert_letter = domino._insert_letter

    def counted(*args):
        letters.append(args[-1])
        return insert_letter(*args)

    monkeypatch.setattr(domino, "_insert_letter", counted)
    domino._insertion_table.__wrapped__(4, 1)
    assert len(letters) == sum(2 ** k * math.perm(4, k)
                               for k in range(1, 5)) == 632


# Each invariant of the integer insertion core, broken by hand: a placed
# cell that is taken, a domino that leaves no Young diagram, a one-cell
# collision away from the top-left cell, and a step that grows the shape by
# something other than one domino or shrinks a row.
BROKEN_INVARIANTS = {
    "placed-cell-taken": "domino._place([2], (1, 2, True))",
    "shape-not-young": "domino._place([], (2, 1, True))",
    "collision-not-top-left": "domino._bump([1, 2], (1, 2, False))",
    "growth-not-a-domino": "domino._grown([2], [3, 1])",
    "growth-shrinks-a-row": "domino._grown([2, 2], [4, 1])",
}


class TestInsertionInvariants:
    @pytest.mark.parametrize("call", sorted(BROKEN_INVARIANTS))
    def test_raises(self, call):
        with pytest.raises(MalformedTableau):
            eval(BROKEN_INVARIANTS[call], {"domino": domino})

    def test_raises_under_optimize(self):
        code = ("from heckeb import domino\n"
                "from heckeb.errors import MalformedTableau\n"
                f"for call in {sorted(BROKEN_INVARIANTS.values())!r}:\n"
                "    try:\n"
                "        eval(call)\n"
                "    except MalformedTableau:\n"
                "        print('raised')\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-O", "-c", code],
                              env={"PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=120)
        assert done.stdout == "raised\n" * len(BROKEN_INVARIANTS), \
            done.stderr
