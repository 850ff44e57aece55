import pytest

from heckeb.combinat import (Bipartition, Partition, enumerate_bipartitions,
                             parse_bipartition)
from heckeb.crystal import (crystal_e, crystal_f, crystal_graph, epsilon,
                            flotw_oracle, signature_word, uglov_bipartitions)
from heckeb.errors import ChargeOutOfRange, InvalidArgument
from heckeb.fock import f_action, FockVector


def B(text):
    return parse_bipartition(text)


# the published rank-4 graphs for charge (0,0) and (2,0), e = 2; the two
# edges into (2;2) and (21;1) carry residue 1 (see notes on the source)
GOLDEN_EDGES_00 = [
    ("(∅;∅)", 0, "(1;∅)"),
    ("(1;∅)", 0, "(1;1)"), ("(1;∅)", 1, "(2;∅)"),
    ("(1;1)", 1, "(2;1)"),
    ("(2;∅)", 0, "(3;∅)"), ("(2;∅)", 1, "(21;∅)"),
    ("(2;1)", 1, "(2;2)"),
    ("(21;∅)", 0, "(31;∅)"),
    ("(3;∅)", 0, "(3;1)"), ("(3;∅)", 1, "(4;∅)"),
]
GOLDEN_EDGES_20 = [
    ("(∅;∅)", 0, "(1;∅)"),
    ("(1;∅)", 0, "(1;1)"), ("(1;∅)", 1, "(2;∅)"),
    ("(1;1)", 1, "(2;1)"),
    ("(2;∅)", 0, "(3;∅)"), ("(2;∅)", 1, "(21;∅)"),
    ("(2;1)", 1, "(21;1)"),
    ("(21;∅)", 0, "(31;∅)"),
    ("(3;∅)", 0, "(3;1)"), ("(3;∅)", 1, "(4;∅)"),
]


class TestGoldenGraphs:
    @pytest.mark.parametrize("charge,golden", [
        ((0, 0), GOLDEN_EDGES_00), ((2, 0), GOLDEN_EDGES_20)])
    def test_edges_exact(self, charge, golden):
        g = crystal_graph(charge, 2, 4)
        want = {(B(a), i, B(b)) for a, i, b in golden}
        assert set(g.edges) == want

    def test_flagged_edges_compute_residue_one(self):
        # the box added on the second row of the second/first component has
        # content 2 - 1 + s_c, odd for both charges, so residue 1
        g = crystal_graph((0, 0), 2, 4)
        labels = [i for a, i, b in g.edges
                  if (a, b) == (B("(2;1)"), B("(2;2)"))]
        assert labels == [1]
        g2 = crystal_graph((2, 0), 2, 4)
        labels2 = [i for a, i, b in g2.edges
                   if (a, b) == (B("(2;1)"), B("(21;1)"))]
        assert labels2 == [1]

    def test_rank4_vertex_sets(self):
        assert set(uglov_bipartitions(4, (0, 0), 2)) == \
            {B("(4;∅)"), B("(31;∅)"), B("(3;1)"), B("(2;2)")}
        assert set(uglov_bipartitions(4, (2, 0), 2)) == \
            {B("(4;∅)"), B("(31;∅)"), B("(3;1)"), B("(21;1)")}


class TestOperators:
    def test_f_e_partial_inverse(self):
        for n in range(5):
            for b in enumerate_bipartitions(n):
                for i in range(2):
                    w = crystal_f(b, (0, 0), 2, i)
                    if w is not None:
                        assert crystal_e(w, (0, 0), 2, i) == b
                    w = crystal_e(b, (0, 0), 2, i)
                    if w is not None:
                        assert crystal_f(w, (0, 0), 2, i) == b

    def test_signature_counts(self):
        for n in range(4):
            for b in enumerate_bipartitions(n):
                for i in range(2):
                    word = signature_word(b, (0, 0), 2, i)
                    tags = [t for t, _ in word]
                    # reduced word has all A's before all R's
                    assert tags == sorted(tags)
                    assert epsilon(b, (0, 0), 2, i) == tags.count("R")

    def test_crystal_is_lowest_term_of_f(self):
        # the crystal image carries the unique minimal v-exponent of f_i|b>
        # (the v^0 normalization only holds at the vacuum)
        for n in range(4):
            for b in uglov_bipartitions(n, (0, 0), 2):
                for i in range(2):
                    w = crystal_f(b, (0, 0), 2, i)
                    if w is None:
                        continue
                    vec = f_action(i, FockVector.basis(b, (0, 0), 2))
                    c = vec.coeff(w)
                    low = min(min(p.terms) for p in vec.terms.values())
                    assert list(c.terms.values()) == [1]
                    assert min(c.terms) == low


class TestFlotw:
    @pytest.mark.parametrize("s,e", [
        ((0, 0), 2), ((0, 1), 2), ((0, 0), 3), ((0, 1), 3), ((0, 2), 3)])
    def test_oracle_matches_graph(self, s, e):
        for n in range(7):
            bfs = set(uglov_bipartitions(n, s, e))
            oracle = {b for b in enumerate_bipartitions(n)
                      if flotw_oracle(b, s, e)}
            assert bfs == oracle, (s, e, n)

    def test_negative_rank_rejected(self):
        with pytest.raises(InvalidArgument):
            crystal_graph((0, 0), 2, -1)

    def test_out_of_range_charge(self):
        with pytest.raises(ChargeOutOfRange):
            flotw_oracle(Bipartition(Partition(()), Partition(())), (2, 0), 2)


class TestExports:
    def test_dot_json(self):
        import json
        g = crystal_graph((0, 0), 2, 2)
        assert g.to_dot().startswith("digraph")
        data = json.loads(g.to_json())
        assert data["schema"] == "1"
        assert data["charge"] == [0, 0]
