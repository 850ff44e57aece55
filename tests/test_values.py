"""The value classes keep the behaviour of the dataclasses they were: repr
text, hash values (and so the order of every set and dict built from them),
field-tuple order, equality with their own class only, refused assignment
on the frozen ones, unhashable mutable ones, and typed errors on bad input.
The reprs and hash values were captured from the dataclass versions, apart
from Specialization's, which follow the same rule.  Every Value subclass of
the package is in one of the tables below."""

import importlib
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import heckeb
from heckeb import Value, hecke, orders, specht
from heckeb.combinat import (BetaSet, Bipartition, Partition,
                             enumerate_bipartitions, format_bipartition)
from heckeb.crystal import CrystalGraph, crystal_graph
from heckeb.cyclo import Specialization
from heckeb.domino import (DominoTableau, Kernel, SignedPermutation,
                           StandardBitableau, insert, kernel, s_t_lambda)
from heckeb.errors import BoundExceeded, InvalidArgument, InvalidSlope
from heckeb.fock import FockVector, f_action
from heckeb.hecke import HeckeElement, cell_datum, kl_basis
from heckeb.laurent import XiOrder
from heckeb.orders import HasseDiagram, hasse

SRC = Path(__file__).resolve().parents[1] / "src"
EMPTY = "Partition(parts=())"
ONE = "Partition(parts=(1,))"
B_ONE_EMPTY = f"Bipartition(first={ONE}, second={EMPTY})"
B_EMPTY_ONE = f"Bipartition(first={EMPTY}, second={ONE})"
SBT_FIRST = "StandardBitableau(first=((1,),), second=())"
SBT_SECOND = "StandardBitableau(first=(), second=((1,),))"
W_PLUS, W_MINUS = ("SignedPermutation(window=(1,))",
                   "SignedPermutation(window=(-1,))")


def _domino_tableau():
    return insert(SignedPermutation((-1, 3, 2)), 0)[0]


def _bitableau():
    return s_t_lambda(SignedPermutation((-1, 3, 2)), 1)[0]


# name: (instance, its fields, repr, hash) of each frozen class with eq
FROZEN = {
    "Partition": (lambda: Partition((2, 1)), ("parts",),
                  "Partition(parts=(2, 1))", 5848168292704103454),
    "Partition-empty": (Partition, ("parts",), EMPTY, -5486347211504344842),
    "Bipartition": (lambda: Bipartition(Partition((1,)), Partition((2,))),
                    ("first", "second"),
                    f"Bipartition(first={ONE}, second=Partition(parts=(2,)))",
                    -3303638661725539211),
    "Bipartition-empty": (Bipartition, ("first", "second"),
                          f"Bipartition(first={EMPTY}, second={EMPTY})",
                          8189856925240824664),
    "BetaSet": (lambda: BetaSet((5, 3, 1, 0)), ("entries",),
                "BetaSet(entries=(5, 3, 1, 0))", -7046206967125382623),
    "SignedPermutation": (lambda: SignedPermutation((-1, 3, 2)), ("window",),
                          "SignedPermutation(window=(-1, 3, 2))",
                          3733872358025994108),
    "DominoTableau": (_domino_tableau, ("core", "dominoes"),
                      f"DominoTableau(core={EMPTY}, dominoes=("
                      "(1, frozenset({(1, 1), (2, 1)})), "
                      "(2, frozenset({(1, 2), (1, 3)})), "
                      "(3, frozenset({(2, 3), (2, 2)}))))",
                      4746115337713011860),
    "StandardBitableau": (_bitableau, ("first", "second"),
                          "StandardBitableau(first=((2,),), second=((1, 3),))",
                          -3161618188981468958),
    "XiOrder": (lambda: XiOrder(Fraction(3, 4)), ("xi",),
                "XiOrder(xi=Fraction(3, 4))", -7658026753311515304),
    "XiOrder-for_r": (lambda: XiOrder.for_r(1), ("xi",),
                      "XiOrder(xi=Fraction(102, 101))", 2777221500783809886),
    "Specialization": (lambda: Specialization(2, 0), ("e", "d"),
                       "Specialization(e=2, d=0)", 4685526799349444076),
}


# name: the fields of each mutable class with eq, in constructor order
MUTABLE = {
    "HasseDiagram": ("vertices", "edges"),
    "CrystalGraph": ("s", "e", "nmax", "vertices", "edges"),
    "CellDatum": ("n", "order", "sbt", "w_of", "sweep"),
    "HeckeElement": ("n", "terms"),
    "FockVector": ("s", "e", "terms"),
}


def _mutable():
    """One instance of each mutable class with eq."""
    return {
        "HasseDiagram": hasse(1, 0),
        "CrystalGraph": crystal_graph((0, 0), 2, 1),
        "CellDatum": cell_datum(1, XiOrder.for_r(0)),
        "HeckeElement": HeckeElement.unit(2).mul_gen(0),
        "FockVector": f_action(0, FockVector.vacuum((0, 0), 2)),
    }


def _package_values():
    """The names of every Value subclass that the package defines."""
    for info in pkgutil.iter_modules(heckeb.__path__):
        importlib.import_module(f"heckeb.{info.name}")
    found, todo = set(), [Value]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("heckeb."):
                found.add(cls.__qualname__)
    return found


def test_every_value_class_is_checked():
    # a new value class must join a table, so that its rule is pinned too
    checked = {name.split("-")[0] for name in FROZEN} | set(MUTABLE)
    assert _package_values() == checked | {"Kernel"}


class TestFrozen:
    @pytest.mark.parametrize("name", FROZEN)
    def test_repr_and_hash(self, name):
        make, fields, text, value = FROZEN[name]
        x = make()
        assert repr(x) == text
        assert hash(x) == value
        assert hash(x) == hash(tuple(getattr(x, f) for f in fields))

    @pytest.mark.parametrize("name", FROZEN)
    def test_equal_by_fields_only_within_the_class(self, name):
        make, fields, _, _ = FROZEN[name]
        x, y = make(), make()
        assert x == y and not x != y and hash(x) == hash(y)
        assert x.__eq__(tuple(getattr(x, f) for f in fields)) is NotImplemented
        assert x.__eq__(Kernel(*range(7))) is NotImplemented
        assert x != Partition((9,)) and x != SignedPermutation((9, 8, 7, 6, 5,
                                                                4, 3, 2, 1))

    @pytest.mark.parametrize("name", FROZEN)
    def test_assignment_refused(self, name):
        make, fields, _, _ = FROZEN[name]
        x = make()
        with pytest.raises(AttributeError):
            setattr(x, fields[0], None)
        with pytest.raises(AttributeError):
            delattr(x, fields[0])
        with pytest.raises(AttributeError):
            x.other = 1
        assert repr(x) == FROZEN[name][2]

    def test_set_order(self):
        # a set iterates in the order its members' hashes give
        assert [format_bipartition(b)
                for b in set(enumerate_bipartitions(3))] == [
            "(21;∅)", "(3;∅)", "(∅;111)", "(1;2)", "(111;∅)", "(1;11)",
            "(11;1)", "(2;1)", "(∅;21)", "(∅;3)"]
        assert [str(w) for w in set(kernel(2).elements)] == [
            "2 -1", "-2 -1", "-1 -2", "-1 2", "1 2", "1 -2", "-2 1", "2 1"]
        assert hash(Partition((2, 1))) == hash(((2, 1),))
        assert hash(Bipartition(Partition((1,)))) == hash((((1,),), ((),)))


class TestOrder:
    def test_sorted_bip4(self):
        assert [format_bipartition(b)
                for b in sorted(enumerate_bipartitions(4))] == [
            "(∅;1111)", "(∅;211)", "(∅;22)", "(∅;31)", "(∅;4)", "(1;111)",
            "(1;21)", "(1;3)", "(11;11)", "(11;2)", "(111;1)", "(1111;∅)",
            "(2;11)", "(2;2)", "(21;1)", "(211;∅)", "(22;∅)", "(3;1)",
            "(31;∅)", "(4;∅)"]

    @pytest.mark.parametrize("cls", [Partition, Bipartition])
    def test_all_four_comparisons_follow_the_field_tuple(self, cls):
        items = (sorted(enumerate_bipartitions(3)) if cls is Bipartition
                 else [Partition(p) for p in ((), (1,), (1, 1), (2,), (2, 1))])
        key = ((lambda b: (b.first.parts, b.second.parts))
               if cls is Bipartition else (lambda p: p.parts))
        for a in items:
            for b in items:
                assert (a < b, a <= b, a > b, a >= b) == (
                    key(a) < key(b), key(a) <= key(b), key(a) > key(b),
                    key(a) >= key(b))

    def test_no_order_across_classes(self):
        assert Partition().__lt__(Bipartition()) is NotImplemented
        with pytest.raises(TypeError):
            Partition() < Bipartition()
        with pytest.raises(TypeError):
            SignedPermutation((1,)) < SignedPermutation((-1,))


class TestKernel:
    def test_identity_equality_and_repr(self):
        k = kernel(1)
        twin = Kernel(k.elements, k.index, k.length, k.last, k.right, k.left,
                      k.inverse)
        assert k == k and k != twin and hash(k) != hash(twin)
        assert Kernel.__eq__ is object.__eq__
        assert Kernel.__hash__ is object.__hash__
        assert repr(k) == (
            f"Kernel(elements=({W_PLUS}, {W_MINUS}), "
            f"index={{{W_PLUS}: 0, {W_MINUS}: 1}}, length=(0, 1), "
            "last=(-1, 0), right=((1, 0),), left=((1, 0),), inverse=(0, 1))")

    def test_frozen_and_keywords(self):
        k = kernel(1)
        again = Kernel(elements=k.elements, index=k.index, length=k.length,
                       last=k.last, right=k.right, left=k.left,
                       inverse=k.inverse)
        assert again.elements is k.elements
        with pytest.raises(AttributeError):
            k.length = ()


class TestMutable:
    def test_reprs(self):
        # the sweep's value table grows as readers expand a C_w, so the
        # datum is built over a fresh sweep
        hecke._kl_sweep.cache_clear()
        hecke.cell_datum.cache_clear()
        values = _mutable()
        assert repr(values["HasseDiagram"]) == (
            f"HasseDiagram(vertices=[{B_ONE_EMPTY}, {B_EMPTY_ONE}], "
            f"edges=[({B_ONE_EMPTY}, {B_EMPTY_ONE})])")
        nought = f"Bipartition(first={EMPTY}, second={EMPTY})"
        assert repr(values["CrystalGraph"]) == (
            f"CrystalGraph(s=(0, 0), e=2, nmax=1, vertices=[{nought}, "
            f"{B_ONE_EMPTY}], edges=[({nought}, 0, {B_ONE_EMPTY})])")
        first, second = f"({SBT_FIRST}, {SBT_FIRST})", \
            f"({SBT_SECOND}, {SBT_SECOND})"
        assert repr(values["CellDatum"]) == (
            "CellDatum(n=1, order=XiOrder(xi=Fraction(1, 101)), "
            f"sbt={{{B_EMPTY_ONE}: [{SBT_SECOND}], "
            f"{B_ONE_EMPTY}: [{SBT_FIRST}]}}, "
            f"w_of={{{first}: 0, {second}: 1}}, "
            "sweep=([(array('I', [0]), array('I', [1])), "
            "(array('I', [1]), array('I', [1]))], "
            "[(array('I', [0, 0, 0]), array('I'), array('I'))], "
            "_Coefficients(order=XiOrder(xi=Fraction(1, 101)), "
            "terms=[(), ((0, 1),)])))")

    @pytest.mark.parametrize("name", MUTABLE)
    def test_unhashable_and_equal_by_fields(self, name):
        x = _mutable()[name]
        fields = MUTABLE[name]
        with pytest.raises(TypeError):
            hash(x)
        twin = type(x)(*(getattr(x, f) for f in fields))
        assert twin == x and twin is not x
        assert twin != type(x)(*(getattr(x, f) for f in fields[:-1]), [])
        assert x.__eq__(object()) is NotImplemented
        # equal within the class only, not to an instance of a subclass
        sub = type("Sub", (type(x),), {})(*(getattr(x, f) for f in fields))
        assert x.__eq__(sub) is NotImplemented and x != sub
        # mutable: assignment is allowed (on the twin, since x may be cached)
        setattr(twin, fields[0], 5)
        assert getattr(twin, fields[0]) == 5 and twin != x

    def test_edges_not_shared(self):
        a, b = CrystalGraph((0, 0), 2, 0, []), CrystalGraph((0, 0), 2, 0, [])
        assert a.edges == [] and a.edges is not b.edges
        a.edges.append(1)
        assert b.edges == [] and a != b
        h, g = HasseDiagram([]), HasseDiagram([])
        assert h.edges == [] and h.edges is not g.edges
        assert HasseDiagram([], [(1, 2)]) != h


class TestXiOrderAsCacheKey:
    def test_equal_slopes_share_a_cache_entry(self):
        assert XiOrder(Fraction(6, 8)) == XiOrder(Fraction(3, 4))
        assert hash(XiOrder(Fraction(6, 8))) == hash((Fraction(3, 4),))
        assert XiOrder(Fraction(3, 4)) != XiOrder(Fraction(5, 4))
        assert kl_basis(2, XiOrder.for_r(0)) is kl_basis(
            2, XiOrder(Fraction(1, 101)))


class TestTypedErrors:
    @pytest.mark.parametrize("make", [
        lambda: Partition((1, 2)), lambda: Partition((0,)),
        lambda: Partition(("a",)), lambda: SignedPermutation((1, 1)),
        lambda: SignedPermutation((1, 3)),
    ], ids=["increasing", "zero-part", "not-int", "repeated", "out-of-range"])
    def test_invalid_argument(self, make):
        with pytest.raises(InvalidArgument):
            make()

    @pytest.mark.parametrize("xi", [Fraction(0), Fraction(-1, 2),
                                    Fraction(2)],
                             ids=["zero", "negative", "integer"])
    def test_invalid_slope(self, xi):
        with pytest.raises(InvalidSlope):
            XiOrder(xi)

    @pytest.mark.parametrize("call", [
        lambda: hecke.kl_basis(2, XiOrder.for_r(0), 1),
        lambda: hecke.cells(2, XiOrder.for_r(0), "LR", 1),
        lambda: hecke.conjecture_a_report(2, XiOrder.for_r(0), 1),
        lambda: hecke.cellularity_check(2, XiOrder.for_r(0), 1),
        lambda: orders.hasse(2, 0, 1),
        lambda: specht.nonzero_simples(2, 2, 0, 0, 1),
        lambda: specht.decomposition_numbers(2, 2, 0, 0, 1),
    ], ids=["kl_basis", "cells", "conjecture_a_report", "cellularity_check",
            "hasse", "nonzero_simples", "decomposition_numbers"])
    def test_bound_exceeded(self, call):
        with pytest.raises(BoundExceeded, match="^n = 2 > bound 1$"):
            call()

    @pytest.mark.parametrize("call", [
        "combinat.partitions(-1)",
        "fock.divided_power_f(0, -1, fock.FockVector.vacuum((0, 0), 2))",
    ], ids=["partitions", "divided_power_f"])
    def test_negative_size_raises_under_optimize(self, call):
        # -O strips assert statements, so each check must raise by itself
        code = ("from heckeb import combinat, fock\n"
                "from heckeb.errors import InvalidArgument\n"
                "try:\n"
                f"    print({call})\n"
                "except InvalidArgument:\n"
                "    print('raised')\n")
        done = subprocess.run([sys.executable, "-O", "-c", code],
                              env={"PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=120)
        assert done.stdout == "raised\n", done.stderr

    def test_domino_tableau_keeps_its_fields(self):
        t = DominoTableau(Partition(), ())
        assert (t.core, t.dominoes) == (Partition(), ())
        s = StandardBitableau(((1,),), ())
        assert s.n == 1
