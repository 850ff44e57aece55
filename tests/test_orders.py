import pytest

from heckeb import INFINITY
from heckeb.combinat import enumerate_bipartitions, parse_bipartition
from heckeb.errors import InvalidArgument, SizeMismatch
from heckeb.orders import (dominance_inf_explicit, dominance_partitions,
                           dominance_r, hasse)
from heckeb.combinat import Partition


def B(text):
    return parse_bipartition(text)


def edge_set(diagram):
    return {(a, b) for a, b in diagram.edges}


class TestDominancePartitions:
    def test_basic(self):
        assert dominance_partitions(Partition((2, 2)), Partition((4,)))
        assert not dominance_partitions(Partition((4,)), Partition((2, 2)))
        with pytest.raises(SizeMismatch):
            dominance_partitions(Partition((2,)), Partition((1,)))


class TestGoldenChains:
    # total chains on Bip(2), smallest first
    CHAIN_R0 = ["(∅;11)", "(11;∅)", "(1;1)", "(∅;2)", "(2;∅)"]
    CHAIN_INF = ["(∅;11)", "(∅;2)", "(1;1)", "(11;∅)", "(2;∅)"]

    def test_r0_chain(self):
        chain = [B(x) for x in self.CHAIN_R0]
        for a, b in zip(chain, chain[1:]):
            assert dominance_r(a, b, 0)
            assert not dominance_r(b, a, 0)
        assert hasse(2, 0).to_text() == "  <|  ".join(self.CHAIN_R0)

    def test_inf_chain(self):
        chain = [B(x) for x in self.CHAIN_INF]
        for a, b in zip(chain, chain[1:]):
            assert dominance_r(a, b, INFINITY)
        assert hasse(2, INFINITY).to_text() == "  <|  ".join(self.CHAIN_INF)
        # r >= n-1 already agrees
        assert hasse(2, 1).to_text() == hasse(2, INFINITY).to_text()


class TestGoldenHasseBip3:
    # arrows run larger -> smaller, as in the source diagrams
    EDGES_R0 = [
        ("(3;∅)", "(∅;3)"), ("(∅;3)", "(2;1)"), ("(2;1)", "(1;2)"),
        ("(2;1)", "(21;∅)"), ("(1;2)", "(∅;21)"), ("(1;2)", "(11;1)"),
        ("(21;∅)", "(∅;21)"), ("(21;∅)", "(11;1)"), ("(∅;21)", "(1;11)"),
        ("(11;1)", "(1;11)"), ("(1;11)", "(111;∅)"), ("(111;∅)", "(∅;111)"),
    ]
    EDGES_R1 = [
        ("(3;∅)", "(21;∅)"), ("(21;∅)", "(2;1)"), ("(2;1)", "(∅;3)"),
        ("(∅;3)", "(1;2)"), ("(1;2)", "(11;1)"), ("(11;1)", "(111;∅)"),
        ("(111;∅)", "(1;11)"), ("(1;11)", "(∅;21)"), ("(∅;21)", "(∅;111)"),
    ]
    EDGES_INF = [
        ("(3;∅)", "(21;∅)"), ("(21;∅)", "(2;1)"), ("(21;∅)", "(111;∅)"),
        ("(2;1)", "(11;1)"), ("(111;∅)", "(11;1)"), ("(11;1)", "(1;2)"),
        ("(1;2)", "(1;11)"), ("(1;2)", "(∅;3)"), ("(1;11)", "(∅;21)"),
        ("(∅;3)", "(∅;21)"), ("(∅;21)", "(∅;111)"),
    ]

    @pytest.mark.parametrize("r,golden", [
        (0, EDGES_R0), (1, EDGES_R1), (2, EDGES_INF), (INFINITY, EDGES_INF)])
    def test_edges(self, r, golden):
        want = {(B(a), B(b)) for a, b in golden}
        assert edge_set(hasse(3, r)) == want


class TestOrderLaws:
    def test_partial_order_and_stability(self):
        # reflexive, antisymmetric, transitive; agreement with the classical
        # order for r >= n-1
        for n in range(6):
            bips = list(enumerate_bipartitions(n))
            for r in range(7):
                rel = {(a, b) for a in bips for b in bips
                       if dominance_r(a, b, r)}
                for a in bips:
                    assert (a, a) in rel
                for a, b in rel:
                    if (b, a) in rel:
                        assert a == b
                for a, b in rel:
                    for c in bips:
                        if (b, c) in rel:
                            assert (a, c) in rel
                if r >= n - 1:
                    for a in bips:
                        for b in bips:
                            assert dominance_r(a, b, r) == \
                                dominance_inf_explicit(a, b)

    def test_explicit_inf_matches_pullback(self):
        for n in range(6):
            bips = list(enumerate_bipartitions(n))
            for a in bips:
                for b in bips:
                    assert dominance_r(a, b, INFINITY) == \
                        dominance_inf_explicit(a, b)


class TestExports:
    def test_json_dot(self):
        import json
        d = hasse(2, 0)
        data = json.loads(d.to_json())
        assert data["schema"] == "1"
        assert len(data["edges"]) == len(d.edges)
        assert d.to_dot().startswith("digraph")


def test_negative_r_is_rejected():
    with pytest.raises(InvalidArgument):
        dominance_r(B("(1;1)"), B("(2;∅)"), -1)
