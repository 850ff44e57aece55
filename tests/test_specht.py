import functools
import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from heckeb import specht
from heckeb.combinat import format_bipartition, parse_bipartition
from heckeb.cyclo import CycloNumber, Specialization
from heckeb.errors import NonIntegralMultiplicity, RankDeficiency
from heckeb.hecke import cell_datum
from heckeb.laurent import ACoeff, XiOrder, pack
from heckeb.specht import (CellModule, adjointness_check, cell_module,
                           decomposition_numbers, generic_semisimplicity_check,
                           nonzero_simples, theorem41_check)

from back_substitution import cellular_basis, expand_in_cellular
from hook_lengths import bipartitions_of_shape_count

ROOT = Path(__file__).resolve().parents[1]

# The 15 Theorem 4.1 cases at rank 3 with the SHA-256 of their canonical
# text, as the benchmark's reference file records them.
THEOREM41_DIGESTS = {
    tuple(int(x) for x in label.split()[4::2]): digest
    for label, digest in json.loads(
        (ROOT / "perfbench" / "references.json").read_text("utf-8")).items()
    if label.startswith("theorem41 --n 3 ")}


def B(text):
    return parse_bipartition(text)


def product_gram(n, r):
    """The Gram matrices by definition: phi(S, T) is the coefficient of
    C_{T0,T0} in the product C_{T0,S} C_{T,T0}, expanded in the cellular
    basis.  The reference for the action-based Gram of _generic_data."""
    datum = cell_datum(n, XiOrder.for_r(r))
    basis = cellular_basis(n, datum.order)
    out = {}
    for lam in datum.shapes:
        sbt = datum.sbt[lam]
        t0 = sbt[0]
        out[lam] = [[expand_in_cellular(
                         datum, basis[(t0, s)] * basis[(t, t0)])
                     .get((t0, t0), ACoeff()) for t in sbt] for s in sbt]
    return out


def nullspace(mat, m):
    """Basis of the right null space of mat."""
    cols = len(mat[0])
    ech, pivots = specht._row_reduce(mat)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        vec = [CycloNumber.zero(m) for _ in range(cols)]
        vec[f] = CycloNumber.rational(m, 1)
        for r, c in enumerate(pivots):
            vec[c] = -ech[r][f]
        basis.append(vec)
    return basis


def trace(mat, m):
    out = CycloNumber.zero(m)
    for i in range(len(mat)):
        out = out + mat[i][i]
    return out


def character(gens, dim, n, m):
    """Trace of every T_w, in kernel order, on the module gens act on."""
    return [trace(a, m) for a in specht._action_matrices(
        gens, specht._identity(dim, m), n, CycloNumber.zero(m))]


def radical_character(mod, n):
    """Trace of every T_w on the radical of the Gram form, in kernel order,
    by one solve per element for the action of T_w on a basis of the
    radical.  The reference for the heads of decomposition_numbers."""
    m = mod.spec.m
    zero = CycloNumber.zero(m)
    rad = nullspace(mod.gram, m)
    actions = specht._action_matrices(
        mod.generators, specht._identity(mod.dim, m), n, zero)
    if not rad:
        return [CycloNumber.zero(m) for _ in actions]
    basis_mat = [[vec[i] for vec in rad] for i in range(mod.dim)]
    out = []
    for a in actions:
        image = specht._mat_mul(a, basis_mat, zero)
        coords = specht._solve_full_column_rank(
            basis_mat, [[row[j] for row in image] for j in range(len(rad))])
        out.append(trace(coords, m))
    return out


def head_oracle(mod, n):
    """Trace of every T_w on S / rad: the cell character minus the
    radical's."""
    return [c - x for c, x in zip(
        character(mod.generators, mod.dim, n, mod.spec.m),
        radical_character(mod, n))]


def broken_module(spec):
    """A two-dimensional module of W_1 whose form has radical span(e_2),
    which T_t swaps with e_1: the radical is not a submodule."""
    m = spec.m
    one, zero = CycloNumber.rational(m, 1), CycloNumber.zero(m)
    return CellModule(B("(1;∅)"), [0, 1], [[[zero, one], [one, zero]]],
                      [[one, zero], [zero, zero]], spec)


def run_optimized(code):
    """stdout of code run under python -O."""
    done = subprocess.run([sys.executable, "-O", "-c", code],
                          env={"PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def dense_product(a, b, zero):
    """a b by the definition: every entry a sum over the inner index."""
    return [[sum((row[k] * b[k][j] for k in range(len(b))), zero)
             for j in range(len(b[0]))] for row in a]


def ring_values(ring):
    """(zero, five nonzero values) of ACoeff or of CycloNumber at m = 8."""
    if ring == "ACoeff":
        return ACoeff(), [ACoeff({pack(1, 0): 2, pack(0, -1): -1}),
                          ACoeff.integer(3), ACoeff({pack(-2, 1): 1}),
                          ACoeff({pack(0, 0): 1, pack(1, 1): -4}),
                          ACoeff({pack(3, -2): 5})]
    return CycloNumber.zero(8), [CycloNumber(8, [1, 2]),
                                 CycloNumber.rational(8, Fraction(-1, 3)),
                                 CycloNumber(8, [0, 0, 1, -1]),
                                 CycloNumber.zeta_power(8, 5),
                                 CycloNumber(8, [2, 0, 0, 7])]


class TestMatMul:
    @pytest.mark.parametrize("ring", ["ACoeff", "CycloNumber"])
    def test_matches_the_definition(self, ring):
        zero, (x, y, z, u, w) = ring_values(ring)
        a = [[x, zero, y], [zero, zero, zero], [u, w, z]]
        # b's middle row and its second column are zero
        b = [[y, zero, x, u], [zero, zero, zero, zero], [w, zero, zero, z]]
        all_zero = [[zero, zero], [zero, zero], [zero, zero]]
        for left, right in ((a, b), (a, all_zero), ([[z, x, w]], b),
                            ([[zero, u, zero]], b), ([[y, x, z]], all_zero)):
            assert specht._mat_mul(left, right, zero) == \
                dense_product(left, right, zero)
        assert specht._mat_mul(a, all_zero, zero) == [[zero, zero]] * 3


class TestCellModules:
    def test_dimensions_match_sbt_counts(self):
        for n in (1, 2, 3):
            counts = bipartitions_of_shape_count(n)
            for lam, want in counts.items():
                mod = cell_module(n, 2, 0, 0, lam)
                assert mod.dim == want

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_gram_matches_products(self, n, r):
        generic = specht._generic_data(n, r)
        want = product_gram(n, r)
        assert set(generic) == set(want)
        for lam, (_, _, gram) in generic.items():
            assert gram == want[lam], format_bipartition(lam)

    def test_gram_symmetric(self):
        for n in (1, 2, 3):
            for lam in bipartitions_of_shape_count(n):
                g = cell_module(n, 2, 0, 0, lam).gram
                for i in range(len(g)):
                    for j in range(len(g)):
                        assert g[i][j] == g[j][i]

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_form_respects_star(self, n, r):
        assert adjointness_check(n, r)

    def test_perturbed_gram_is_not_adjoint(self, monkeypatch):
        # one off-diagonal Gram entry of one shape moved by 1: the check
        # fails, while the same patch with the Gram unchanged passes
        n, r = 2, 1
        generic = specht._generic_data(n, r)
        lam, (sbt, gens, gram) = next(
            (lam, data) for lam, data in generic.items() if len(data[0]) > 1)
        bad = [row[:] for row in gram]
        bad[0][1] = bad[0][1] + ACoeff.integer(1)
        for form, want in ((gram, True), (bad, False)):
            monkeypatch.setattr(specht, "_generic_data", lambda *args, g=form:
                                {**generic, lam: (sbt, gens, g)})
            assert adjointness_check(n, r) is want

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_generic_semisimplicity(self, n, r):
        # generic Gram determinants are nonzero polynomials
        assert generic_semisimplicity_check(n, r)


class TestSimplesAndDecomposition:
    def test_n1_anchor(self):
        # at Q0^2 = -1 exactly one simple survives, labeled ((1), empty)
        simples = nonzero_simples(1, 2, 0, 0)
        assert simples == [B("(1;∅)")]
        rows, cols, entries = decomposition_numbers(1, 2, 0, 0)
        assert cols == [B("(1;∅)")]
        assert entries == {(B("(1;∅)"), B("(1;∅)")): 1,
                           (B("(∅;1)"), B("(1;∅)")): 1}

    def test_diagonal_ones(self):
        for n in (1, 2, 3):
            _, cols, entries = decomposition_numbers(n, 2, 0, 0)
            for mu in cols:
                assert entries.get((mu, mu)) == 1

    def test_nonnegative_entries(self):
        for n in (1, 2, 3):
            for r in (0, 1):
                _, _, entries = decomposition_numbers(n, 2, 0, r)
                assert all(v >= 0 for v in entries.values())


class TestSimpleHeads:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("e, d", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_head_is_cell_minus_radical(self, n, e, d, r):
        for mu in nonzero_simples(n, e, d, r):
            mod = cell_module(n, e, d, r, mu)
            head = specht._head(mod, n, e, d, r)
            m = mod.spec.m
            actions = specht._action_matrices(
                mod.generators, specht._identity(mod.dim, m), n,
                CycloNumber.zero(m))
            assert [head(a) for a in actions] == head_oracle(mod, n), \
                format_bipartition(mu)

    def test_mutated_head_disagrees(self):
        # a shape at n = 3 whose form has a radical and rank at least 2:
        # the functional with its pivot columns rotated, and with E replaced
        # by the identity (the cell character), both miss the oracle
        n, e, d, r = 3, 2, 0, 0
        mod = next(mod for mu in nonzero_simples(n, e, d, r)
                   for mod in [cell_module(n, e, d, r, mu)]
                   if 2 <= len(specht._row_reduce(mod.gram)[1]) < mod.dim)
        m = mod.spec.m
        ech, pivots = specht._row_reduce(mod.gram)
        want = head_oracle(mod, n)
        actions = specht._action_matrices(
            mod.generators, specht._identity(mod.dim, m), n,
            CycloNumber.zero(m))
        for rows, cols in ((ech[:len(pivots)], pivots[1:] + pivots[:1]),
                           (specht._identity(mod.dim, m), range(mod.dim))):
            mutated = specht._trace_through(rows, cols, m)
            assert [mutated(a) for a in actions] != want

    def test_radical_not_a_submodule_raises(self):
        with pytest.raises(RankDeficiency) as info:
            specht._head(broken_module(Specialization(2, 0)), 1, 2, 0, 0)
        assert str(info.value) == (
            "the radical of the form on S_(1;∅) is not a submodule at "
            "n = 1, e = 2, d = 0, r = 0")

    def test_theorem41_blocked(self, monkeypatch):
        specialized = specht._specialized_data

        def patched(n, e, d, r):
            spec, modules = specialized(n, e, d, r)
            return spec, {**modules, B("(1;∅)"): broken_module(spec)}

        monkeypatch.setattr(specht, "_specialized_data", patched)
        # a fresh cache, so no earlier result hides the broken module
        fresh = functools.lru_cache(maxsize=None)(
            decomposition_numbers.__wrapped__)
        monkeypatch.setattr(specht, "decomposition_numbers", fresh)
        report = theorem41_check(1, 2, 0, 0)
        assert report["status"] == "blocked"
        assert report["details"] == [
            "the radical of the form on S_(1;∅) is not a submodule at "
            "n = 1, e = 2, d = 0, r = 0"]

    def test_theorem41_trace_system_degenerate(self, monkeypatch):
        # a simple listed twice: its trace column repeats, so the system
        # that solves for the multiplicities has dependent columns
        simples = specht.nonzero_simples
        monkeypatch.setattr(specht, "nonzero_simples",
                            lambda *args: (s := simples(*args)) + s[:1])
        fresh = functools.lru_cache(maxsize=None)(
            decomposition_numbers.__wrapped__)
        monkeypatch.setattr(specht, "decomposition_numbers", fresh)
        report = theorem41_check(1, 2, 0, 0)
        assert report["status"] == "blocked"
        assert report["details"] == [
            "trace system degenerate: trace system rank 1 < unknowns 2, "
            "or inconsistent"]

    def test_theorem41_blocked_under_optimize(self):
        code = ("from heckeb import specht\n"
                "from heckeb.combinat import parse_bipartition as B\n"
                "from heckeb.cyclo import CycloNumber\n"
                "specialized = specht._specialized_data\n"
                "def patched(n, e, d, r):\n"
                "    spec, modules = specialized(n, e, d, r)\n"
                "    one = CycloNumber.rational(spec.m, 1)\n"
                "    zero = CycloNumber.zero(spec.m)\n"
                "    broken = specht.CellModule(B('(1;∅)'), [0, 1],"
                " [[[zero, one], [one, zero]]], [[one, zero], [zero, zero]],"
                " spec)\n"
                "    return spec, {**modules, B('(1;∅)'): broken}\n"
                "specht._specialized_data = patched\n"
                "report = specht.theorem41_check(1, 2, 0, 0)\n"
                "print(report['status'], *report['details'], sep='\\n')\n")
        assert run_optimized(code) == (
            "blocked\nthe radical of the form on S_(1;∅) is not a submodule "
            "at n = 1, e = 2, d = 0, r = 0\n")


class TestNonIntegralMultiplicity:
    LAM, MU = B("(1;∅)"), B("(∅;1)")

    @pytest.mark.parametrize("coeffs", [[Fraction(1, 2)], [1, 1]],
                             ids=["fraction", "irrational"])
    def test_raises(self, coeffs):
        with pytest.raises(NonIntegralMultiplicity) as info:
            specht._as_int(CycloNumber(8, coeffs), 1, 2, 0, 0,
                           self.LAM, self.MU)
        message = str(info.value)
        assert "S_(1;∅) : D_(∅;1)" in message
        assert "n = 1, e = 2, d = 0, r = 0" in message
        assert str(CycloNumber(8, coeffs)) in message

    def test_integral_values(self):
        assert specht._as_int(CycloNumber(8, [Fraction(6, 3)]), 1, 2, 0, 0,
                              self.LAM, self.MU) == 2

    def test_raises_under_optimize(self):
        code = ("from fractions import Fraction\n"
                "from heckeb import specht\n"
                "from heckeb.combinat import parse_bipartition as B\n"
                "from heckeb.cyclo import CycloNumber\n"
                "from heckeb.errors import NonIntegralMultiplicity\n"
                "try:\n"
                "    specht._as_int(CycloNumber(8, [Fraction(1, 2)]),"
                " 1, 2, 0, 0, B('(1;∅)'), B('(∅;1)'))\n"
                "except NonIntegralMultiplicity:\n"
                "    print('raised')\n")
        assert run_optimized(code) == "raised\n"


class TestTheorem41:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_end_to_end(self, n, r):
        report = theorem41_check(n, 2, 0, r)
        assert report["status"] == "ok", report["details"]

    def test_report_carries_assumptions(self):
        report = theorem41_check(1, 2, 0, 0)
        assert any("assumed" in a for a in report["assumptions"])
        assert report["charge"] == [0, 0]


def theorem41_canonical(report, e, d, r):
    """The canonical text of one case: the report, then the decomposition
    numbers it compared (the benchmark's theorem41-rank3 format)."""
    _, _, entries = decomposition_numbers(3, e, d, r, specht.SPECHT_BOUND)
    rows = sorted([format_bipartition(a), format_bipartition(b), v]
                  for (a, b), v in entries.items())
    return (specht.theorem41_json(report) + "\n"
            + json.dumps(rows, ensure_ascii=False) + "\n").encode()


def test_theorem41_rank3_matches_references():
    assert len(THEOREM41_DIGESTS) == 15
    wrong = []
    for (e, d, r), digest in sorted(THEOREM41_DIGESTS.items()):
        report = theorem41_check(3, e, d, r)
        text = theorem41_canonical(report, e, d, r)
        if report["status"] != "ok" \
                or hashlib.sha256(text).hexdigest() != digest:
            wrong.append((e, d, r))
    assert wrong == []
