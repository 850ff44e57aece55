import hashlib

import pytest

from heckeb import INFINITY
from heckeb.combinat import enumerate_bipartitions, parse_bipartition
from heckeb.errors import InvalidArgument, SizeMismatch
from heckeb.orders import (dominance_partitions, dominance_r, hasse,
                           order_key, order_table)
from heckeb.combinat import Partition

from oracles import dominance_inf_explicit


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


class TestHasseEdgeOrder:
    # SHA-256 of hasse(n, r).to_json(), edge order included, captured from
    # the pairwise construction that preceded the order table
    CASES = [(n, r) for n in (4, 5, 6) for r in [*range(n), INFINITY]]
    DIGESTS = dict(zip(CASES, """
        f3e25ace1ae0621d6845d46b74046c4bc445429bdc3974daf0184482bfd1a9e6
        4c36572d7810f5f974fcc303468c8c192a3149195ba49d4b501bc95a978b099e
        8c0a223fcdc69d949a1a579d1350bdcf5ba47675d1423ea9fb72ee5b0ee6969d
        5b10b56cf4f860ed712550fe3198e59fe999018167d4682d0f2f31538001255c
        5b10b56cf4f860ed712550fe3198e59fe999018167d4682d0f2f31538001255c
        01a29ea39c5ce57aa085db1796f724ad0df3c7dd8a0d038ce6292f99d5f3a6ac
        405d9451e70dd43f24d618023dce7e239a1b36594013088d16368f5775caf22b
        2cc0ee3462e1aed734970f5de8726817fa8f69b106abf357a272901ec5632023
        ce97a4751bae4fab2484516ba174157aa3adb0eb77ee7af3d5719b4770d821e0
        fbf09889ce18e83b968855dc8aff5e80fc5de12522e30ff8ae93250ca2cc6318
        fbf09889ce18e83b968855dc8aff5e80fc5de12522e30ff8ae93250ca2cc6318
        b89339bf0b7c76d3bfe0a4e46322f73f0f5c85d53b3f9814585938492ab1238e
        71adb265a6316a5e7539cb86689df5918a56ec2d3b904332d8338ed9e3acea98
        826bbcfe71b8223818c6fb92aae3756adacc667ac2eee1b52e5966b132834dd1
        7e671b5469e8d6a8d80ee5d71cfe9e5f3036956b394f6a231f76c879c5ad737b
        b9c8fe34b5a8946a6290b3b50ed27a1fe46a330d76142983fcab9340addcfe5a
        fd496dabdf45c278bae7e7e909bac34fd0725a393857f7b013ad9aa4cca93815
        fd496dabdf45c278bae7e7e909bac34fd0725a393857f7b013ad9aa4cca93815
        """.split()))

    @pytest.mark.parametrize("n,r", CASES)
    def test_json_digest(self, n, r):
        text = hasse(n, r).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == \
            self.DIGESTS[n, r]


def test_inf_shares_the_table_of_n_minus_1():
    for n in range(1, 5):
        assert order_table(n, INFINITY) is order_table(n, n - 1)


class TestOrderLaws:
    def test_partial_order_and_stability(self):
        # reflexive, antisymmetric, transitive; agreement with the classical
        # order for r >= n-1
        for n in range(6):
            bips = list(enumerate_bipartitions(n))
            for r in range(7):
                rel = {(a, b) for a in bips for b in bips
                       if dominance_r(a, b, r)}
                index, below = order_table(n, r)
                assert list(index) == bips
                assert {(a, b) for a in bips for b in bips
                        if below[index[b]] >> index[a] & 1} == rel
                # ascending in order_key is a linear extension
                ranked = sorted(bips, key=lambda b: order_key(b, r))
                assert not any((b, a) in rel for i, a in enumerate(ranked)
                               for b in ranked[i + 1:])
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
