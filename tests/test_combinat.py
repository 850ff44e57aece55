import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from heckeb.combinat import (BetaSet, Bipartition, Partition,
                             core_and_quotient, delta_core,
                             enumerate_bipartitions, format_bipartition,
                             format_partition, parse_bipartition,
                             parse_partition, partitions, q_r, q_r_inverse)
from heckeb.errors import CoreMismatch, InvalidArgument

from hook_lengths import transpose
from oracles import staircase_index


def P(*parts):
    return Partition(tuple(parts))


def B(a, b):
    return Bipartition(P(*a), P(*b))


partition_strategy = st.lists(
    st.integers(min_value=1, max_value=9), max_size=6
).map(lambda xs: Partition(tuple(sorted(xs, reverse=True))))


class TestPartition:
    @pytest.mark.parametrize("parts", [(4, 6), (2, 0), (-1,)])
    def test_rejects_non_partitions(self, parts):
        with pytest.raises(InvalidArgument):
            Partition(parts)

    def test_enumerate_rejects_negative_n(self):
        with pytest.raises(InvalidArgument):
            enumerate_bipartitions(-1)
        assert len(enumerate_bipartitions(0)) == 1

    def test_delta_core_rejects_negative_r(self):
        with pytest.raises(InvalidArgument):
            delta_core(-1)

    def test_basic(self):
        p = P(4, 2, 1)
        assert p.size == 7
        assert p.part(1) == 4 and p.part(5) == 0
        assert transpose(p) == P(3, 2, 1, 1)

    def test_transpose_involutive(self):
        for n in range(8):
            for parts in partitions(n):
                p = Partition(parts)
                assert transpose(transpose(p)) == p

    def test_delta_core(self):
        assert delta_core(0) == P()
        assert delta_core(3) == P(3, 2, 1)

    @given(partition_strategy)
    def test_beta_roundtrip(self, p):
        cardinality = len(p.parts) + len(p.parts) % 2 + 2
        b = BetaSet.from_partition(p, cardinality)
        assert b.to_partition() == p


class TestBetaSet:
    BAD = {"decreasing": "BetaSet((0, 5))", "odd": "BetaSet((1,))",
           "short": "BetaSet.from_partition(Partition((2, 1, 1)), 2)"}

    @pytest.mark.parametrize("make", BAD.values(), ids=BAD.keys())
    def test_rejects(self, make):
        with pytest.raises(InvalidArgument):
            eval(make).to_partition()

    def test_rejects_under_optimize(self):
        code = ("from heckeb.combinat import BetaSet, Partition\n"
                "from heckeb.errors import InvalidArgument\n"
                f"for make in {list(self.BAD.values())!r}:\n"
                "    try:\n"
                "        print(eval(make).to_partition())\n"
                "    except InvalidArgument:\n"
                "        print('raised')\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-O", "-c", code],
                              env={"PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=120)
        assert done.stdout == "raised\n" * 3, done.stderr


class TestQuotient:
    def test_two_core_staircase(self):
        assert core_and_quotient(P(6, 4, 3))[0] == P(1)
        assert staircase_index(P(2, 1)) == 2
        with pytest.raises(CoreMismatch):
            staircase_index(P(2, 2))

    def test_roundtrip_exhaustive(self):
        for n in range(6):
            for r in range(5):
                for b in enumerate_bipartitions(n):
                    p = q_r_inverse(b, r)
                    assert core_and_quotient(p)[0] == delta_core(r)
                    assert q_r(p, r) == b

    def test_size_of_preimage(self):
        # |q_r_inverse(b)| = 2|b| + |delta_r| with |delta_r| = r(r+1)/2
        for n in range(5):
            for r in range(5):
                for b in enumerate_bipartitions(n):
                    assert q_r_inverse(b, r).size == 2 * n + r * (r + 1) // 2

    def test_quotient_consistency(self):
        core, quot = core_and_quotient(P(6, 4, 3))
        assert core == P(1)
        assert P(6, 4, 3).size == core.size + 2 * (quot[0].size + quot[1].size)


    def test_too_few_runner_beads_raise(self, monkeypatch):
        # q_r_inverse sizes the core's beta-set so that each runner holds a
        # bead per part of its quotient component; a beta-set with no odd
        # bead leaves none for the first one
        monkeypatch.setattr(BetaSet, "from_partition", classmethod(
            lambda cls, p, n: cls(tuple(range(2 * n - 2, -1, -2)))))
        with pytest.raises(CoreMismatch):
            q_r_inverse(B((1,), ()), 0)


class TestEnumeration:
    def test_counts(self):
        # convolution of partition counts
        counts = [sum(len(partitions(k)) * len(partitions(n - k))
                      for k in range(n + 1)) for n in range(6)]
        assert counts == [1, 2, 5, 10, 20, 36]
        for n in range(6):
            assert len(list(enumerate_bipartitions(n))) == counts[n]

    def test_no_duplicates(self):
        for n in range(7):
            bips = list(enumerate_bipartitions(n))
            assert len(set(bips)) == len(bips)
            assert all(b.size == n for b in bips)


class TestFormatting:
    def test_format(self):
        assert format_partition(P(2, 1)) == "21"
        assert format_partition(P()) == "∅"
        assert format_partition(P(10, 4, 3)) == "10.4.3"
        assert format_bipartition(B([2, 1], [])) == "(21;∅)"

    def test_parse(self):
        assert parse_partition("21") == P(2, 1)
        assert parse_partition("∅") == P()
        assert parse_partition("10.4.3") == P(10, 4, 3)
        assert parse_bipartition("(21;∅)") == B([2, 1], [])
        assert parse_bipartition("(1;11)") == B([1], [1, 1])

    @pytest.mark.parametrize("parse, text", [
        (parse_partition, "6x3"), (parse_partition, "1 2"),
        (parse_partition, "4.a"), (parse_partition, "2,,1"),
        (parse_bipartition, "(21)"), (parse_bipartition, "1;2;3"),
        (parse_bipartition, "(x;1)"), (parse_bipartition, "(2;1.b)"),
        (parse_bipartition, "(12;1)")],
        ids=["letter", "space", "dotted-letter", "empty-part",
             "no-separator", "two-separators", "bad-first", "bad-second",
             "increasing"])
    def test_malformed_text_raises_naming_it(self, parse, text):
        # a typed error naming the whole input, never a bare ValueError
        with pytest.raises(InvalidArgument, match=re.escape(repr(text))):
            parse(text)

    @given(partition_strategy)
    def test_format_parse_roundtrip(self, p):
        assert parse_partition(format_partition(p)) == p
