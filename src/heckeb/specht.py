"""Cell modules of the cyclotomic quotient and their decomposition numbers.

The Kazhdan-Lusztig cellular structure gives a cell module for every
bipartition shape; specializing the parameters at roots of unity (q a
primitive 2e-th root, Q^2 = -q^{2d}) turns them into modules over a
cyclotomic field.  Simple quotients survive exactly when the Gram form is
nonzero: the simple head D = S / rad of a cell module S is its quotient by
the radical of the form (Graham-Lehrer, Cellular algebras, Invent. Math.
123, 1996, section 3).  No head is built as a module: its character is a
linear functional on the matrices of the cell module itself, read off the
reduced echelon form of the Gram form (_head).  Decomposition numbers are
recovered from these trace functions: the traces of all standard basis
elements on the simples are linearly independent, so each cell-module
character decomposes uniquely.

Only generic data are cached, for two (rank, slope) pairs (_generic_data),
and the last 32 results of decomposition_numbers.
The specialization at (e, d) is applied where it is read: nonzero_simples
specializes the Gram forms, and decomposition_numbers specializes one cell
module at a time inside its loop over shapes, so no specialized module
outlives the reading of its traces.
"""

from __future__ import annotations

import functools
import json

from . import check_bound
from .combinat import Bipartition, format_bipartition
from .canonical import charge_from, decomposition_matrix
from .cyclo import CycloNumber, Specialization
from .domino import kernel
from .errors import NonIntegralMultiplicity, RankDeficiency
from .hecke import cell_datum, gram_form, structure_coefficients
from .laurent import XiOrder

Matrix = list[list[CycloNumber]]

SPECHT_BOUND = 3


def _mat_mul(a: list[list], b: list[list], zero) -> list[list]:
    """The product a b over any ring whose entries have is_zero, + and *;
    zero is the ring's zero.  Only the nonzero entries of b are
    multiplied: their index is built once per call."""
    nonzero = [[(j, y) for j, y in enumerate(row) if not y.is_zero()]
               for row in b]
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [zero] * cols
        for x, entries in zip(row, nonzero):
            if not x.is_zero():
                for j, y in entries:
                    acc[j] = acc[j] + x * y
        out.append(acc)
    return out


def _identity(n: int, m: int) -> Matrix:
    return [[CycloNumber.rational(m, 1 if i == j else 0) for j in range(n)]
            for i in range(n)]


def _row_reduce(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Gaussian elimination; returns (echelon form, pivot columns)."""
    mat = [row[:] for row in mat]
    pivots = []
    r = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(mat))
                      if not mat[i][c].is_zero()), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c].inverse()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][c].is_zero():
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def _solve_full_column_rank(a: Matrix, bs: list[list[CycloNumber]]) \
        -> list[list[CycloNumber]]:
    """Solve a x = b for several right-hand sides; a must have full column
    rank and every system must be consistent."""
    cols = len(a[0]) if a else 0
    aug = [row[:] + [b[i] for b in bs] for i, row in enumerate(a)]
    ech, pivots = _row_reduce(aug)
    if pivots[:cols] != list(range(cols)) or len(pivots) > cols:
        raise RankDeficiency(
            f"trace system rank {len([p for p in pivots if p < cols])} "
            f"< unknowns {cols}, or inconsistent")
    return [[ech[i][cols + k] for i in range(cols)] for k in range(len(bs))]


@functools.lru_cache(maxsize=2)
def _generic_data(n: int, r: int):
    """Generator-action and Gram matrices over the generic ring, per shape.

    Returns {shape: (sbt, gens, gram)} with matrix entries ACoeff; gens[i]
    is the matrix of T_{s_i} that structure_coefficients reads off the
    W-graph, and gram the form gram_form reads off it.  The datum is not
    kept: cell_datum's cache bounds it.
    """
    # the public entries have checked n against their bound
    datum = cell_datum(n, XiOrder.for_r(r))
    modules = {}
    for lam, sbt in datum.sbt.items():
        gens = [structure_coefficients(datum, i, lam) for i in range(n)]
        modules[lam] = (sbt, gens, gram_form(datum, lam, gens))
    return modules


def nonzero_simples(n: int, e: int, d: int, r: int,
                    bound: int = SPECHT_BOUND) -> list[Bipartition]:
    """Shapes whose Gram form survives specialization (labels of simples):
    the head D = S / rad is nonzero exactly when the form is
    (Graham-Lehrer, section 3).  Each generic Gram of _generic_data is
    specialized here, entry by entry, by Specialization(e, d).theta."""
    check_bound(n, bound)
    spec = Specialization(e, d)
    return [lam for lam, (_, _, gram) in _generic_data(n, r).items()
            if any(not spec.theta(c).is_zero() for row in gram for c in row)]


def _action_matrices(gens: list, start: list, n: int, zero) -> list:
    """start M_w for every T_w, in kernel order, where M_w is the matrix of
    T_w on the module on which T_t, T_{s_1}, ... act by gens; built along
    reduced words.  With start the identity these are the M_w."""
    # left action: T_w = T_prefix * T_last acts as M_prefix @ M_last
    return kernel(n).along_words(
        start, lambda prev, i: _mat_mul(prev, gens[i], zero))


def _trace_through(rows: Matrix, pivots, m: int):
    """M -> sum_j (E M)[j][p_j] for the rows E of a reduced echelon form
    and their pivot columns p_j; with E = 1 it is the trace of M."""
    terms = [(k, p, x) for row, p in zip(rows, pivots)
             for k, x in enumerate(row) if not x.is_zero()]
    return lambda mat: sum((x * mat[k][p] for k, p, x in terms),
                           CycloNumber.zero(m))


def _head(lam: Bipartition, gens: list[Matrix], gram: Matrix, m: int,
          n: int, e: int, d: int, r: int):
    """The character of the simple head D = S / rad of the cell module S of
    shape lam, as a functional on the matrices M_w of T_w on S; gens and
    gram are its specialized generator action and Gram form, over Q(zeta_m).

    Let E be the nonzero rows of the reduced echelon form of the Gram G,
    with pivot columns p_j, and J put row j at column p_j.  null(E) =
    null(G) = rad and E J = 1, so P = J E is idempotent with kernel rad and
    is the identity on S / rad.  rad is M_w-stable, so tr(T_w | S / rad) =
    tr(M_w P) = sum_j (E M_w)[j][p_j].  rad is M_i-stable exactly when
    E M_i = (E M_i J) E; raises RankDeficiency, naming the shape, when it
    is not.
    """
    zero = CycloNumber.zero(m)
    ech, pivots = _row_reduce(gram)
    rows = ech[:len(pivots)]
    for g in gens:
        moved = _mat_mul(rows, g, zero)
        if _mat_mul([[x[p] for p in pivots] for x in moved], rows, zero) \
                != moved:
            raise RankDeficiency(
                f"the radical of the form on S_{format_bipartition(lam)}"
                f" is not a submodule at n = {n}, e = {e}, d = {d}, r = {r}")
    return _trace_through(rows, pivots, m)


def _as_int(x: CycloNumber, n: int, e: int, d: int, r: int,
            lam: Bipartition, mu: Bipartition) -> int:
    """The decomposition number [S_lam : D_mu] that x must be, as an int."""
    c = x.coeffs[0]
    if any(x.coeffs[1:]) or c.denominator != 1:
        raise NonIntegralMultiplicity(
            f"[S_{format_bipartition(lam)} : D_{format_bipartition(mu)}] = "
            f"{x} at n = {n}, e = {e}, d = {d}, r = {r} is not an integer")
    return int(c)


@functools.lru_cache(maxsize=32)
def decomposition_numbers(n: int, e: int, d: int, r: int,
                          bound: int = SPECHT_BOUND):
    """Multiplicities [S_lam : D_mu] via trace functions.

    Returns (rows, cols, entries): rows are all shapes, cols the labels of
    the simples, entries a dict keyed by (lam, mu).  Each shape's entry of
    _generic_data is specialized at (e, d) inside the loop over shapes, and
    the matrices of every T_w on that cell module are built once; both its
    character and, for a simple, the character of its head are read off
    them before the next shape is specialized.  Raises
    RankDeficiency when a radical is not a submodule of its cell module, or
    "trace system degenerate" when the simple characters fail to separate.
    """
    check_bound(n, bound)
    spec = Specialization(e, d)
    m = spec.m
    simples = nonzero_simples(n, e, d, r, bound)
    # per shape, its character and, for a simple, its head's; one module's
    # specialized data and matrices are dropped before the next module's
    # are built
    traces = {}
    for lam, (sbt, gens, gram) in _generic_data(n, r).items():
        sgens = [[[spec.theta(c) for c in row] for row in g] for g in gens]
        one = _identity(len(sbt), m)
        reads = [_trace_through(one, range(len(sbt)), m)]
        if lam in simples:
            sgram = [[spec.theta(c) for c in row] for row in gram]
            reads.append(_head(lam, sgens, sgram, m, n, e, d, r))
        traces[lam] = list(zip(*(
            [read(a) for read in reads]
            for a in _action_matrices(sgens, one, n, CycloNumber.zero(m)))))
    try:
        sols = _solve_full_column_rank(
            [list(row) for row in zip(*(traces[mu][1] for mu in simples))],
            [t[0] for t in traces.values()])
    except RankDeficiency as exc:
        raise RankDeficiency(f"trace system degenerate: {exc}") from None
    entries = {}
    for lam, sol in zip(traces, sols):
        for mu, x in zip(simples, sol):
            val = _as_int(x, n, e, d, r, lam, mu)
            if val:
                entries[(lam, mu)] = val
    return list(traces), simples, entries


def theorem41_check(n: int, e: int, d: int, r: int,
                    bound: int = SPECHT_BOUND) -> dict:
    """Compare Specht-side decomposition numbers with the canonical basis
    of the Fock space of charge (d + pe, 0) evaluated at v = 1.

    Status 'ok' when everything matches, 'blocked' when an input assumption
    fails (label sets differ or decomposition_numbers raises), 'failed'
    when labels match but multiplicities differ.
    """
    report = {"n": n, "e": e, "d": d, "r": r,
              "assumptions": [
                  "cells match domino insertion fibers (checked internally)",
                  "cell modules realize the standard modules, so rows are "
                  "labeled by shapes (assumed, not checkable here)"],
              "status": "ok", "details": []}
    s = charge_from(r, d, e)
    report["charge"] = list(s)
    dm = decomposition_matrix(n, s, e, r)
    fock_cols = set(dm.cols)
    try:
        rows, simples, entries = decomposition_numbers(n, e, d, r, bound)
    except RankDeficiency as exc:
        report["status"] = "blocked"
        report["details"].append(str(exc))
        return report
    if set(simples) != fock_cols:
        report["status"] = "blocked"
        report["details"].append(
            "simple labels differ from crystal vertices: "
            f"specht {sorted(format_bipartition(x) for x in simples)} vs "
            f"fock {sorted(format_bipartition(x) for x in fock_cols)}")
        return report
    for lam in rows:
        for mu in simples:
            specht_val = entries.get((lam, mu), 0)
            fock_val = dm.entry(lam, mu).at_one()
            if specht_val != fock_val:
                report["status"] = "failed"
                report["details"].append(
                    f"d[{format_bipartition(lam)}, {format_bipartition(mu)}]"
                    f" = {specht_val} (specht) vs {fock_val} (fock)")
    return report


def theorem41_json(report: dict) -> str:
    return json.dumps(report, ensure_ascii=False, indent=2)
