"""Command-line surface.

Each subcommand runs one library computation.  Three checks are reachable
from the library and the test suite only: specht.adjointness_check,
specht.generic_semisimplicity_check and domino.verify_insertion_bijection.
All configuration is by flags and output ordering is deterministic, so runs
are byte-identical for fixed inputs.  Exit status: 0 on success, 2 when a
check subcommand reports a failure, 1 on usage errors, and 141 (128 +
SIGPIPE, as for a process the signal ends) with nothing on stderr when the
reader of stdout closes it early, as `heckeb ... | head` does.

A subcommand imports only what it runs.  Every command is a fresh
interpreter, and loading all of the library (and building every
subcommand's parser) would cost about a third of a small command's time;
so this module imports nothing of the library at the top but `heckeb` and
`heckeb.errors`, each `_run_*` imports the library names it calls, and
`run` builds only the parser of the subcommand named by its first argument.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import INFINITY, resolve_r
from .errors import HeckebError, InvalidSlope

# The subcommands whose computation has a size bound that --bound
# overrides, and those that print a JSON report and take no --format.
_BOUNDED = ("order", "klbasis", "cells", "check-conj-a", "check-cellular",
           "theorem41", "specht")
_JSON_REPORTS = ("check-conj-a", "check-cellular", "theorem41")
# The formats a subcommand renders besides text and json.
_MORE_FORMATS = {"order": ("dot",), "crystal": ("dot",), "decmat": ("tsv",),
                 "specht": ("tsv",)}
# The status of a process ended by SIGPIPE, as a shell reports it.
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"heckeb: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_r(text: str):
    if text in ("inf", "infinity", "∞"):
        return INFINITY
    return int(text)


def _parse_charge(text: str) -> tuple[int, int]:
    bits = text.split(",")
    if len(bits) != 2:
        raise ValueError(f"charge must be 's0,s1', got {text!r}")
    return (int(bits[0]), int(bits[1]))


def _order_from(args, n: int):
    from fractions import Fraction

    from .laurent import XiOrder

    r = resolve_r(args.r, n)
    if getattr(args, "xi", None):
        try:
            xi = Fraction(args.xi)
        except ZeroDivisionError:
            raise InvalidSlope(f"xi = {args.xi} has a zero denominator") \
                from None
        order = XiOrder(xi)
        if order.r != r:
            raise ValueError(f"floor(xi) = {order.r} inconsistent with r = {r}")
        return order
    return XiOrder.for_r(r)


def build_parser(name: str | None = None) -> _Parser:
    """The parser of every subcommand, or of name's alone when name is one.
    Either way the top-level usage lists every subcommand: the metavar
    repeats the choices that argparse writes for the whole tree."""
    top = _Parser(prog="heckeb")
    only = name if name in _RUNNERS else None
    sub = top.add_subparsers(
        dest="subcommand", required=True,
        **({"metavar": "{" + ",".join(_RUNNERS) + "}"} if only else {}))

    def cmd(name, **kwargs):
        if only not in (None, name):
            return None
        p = sub.add_parser(name, **kwargs)
        if name not in _JSON_REPORTS:
            p.add_argument("--format", default="text",
                           choices=["json", *_MORE_FORMATS.get(name, ()),
                                    "text"])
        if name in _BOUNDED:
            p.add_argument("--bound", type=int, default=None,
                           help="override the built-in size bound")
        return p

    if p := cmd("bip", help="enumerate bipartitions of n"):
        p.add_argument("--n", type=int, required=True)

    if p := cmd("quotient", help="2-quotient maps"):
        p.add_argument("--partition", help="partition, e.g. 643 or 10.4.3")
        p.add_argument("--bipartition", help="bipartition, e.g. '(21;∅)'")
        p.add_argument("--r", type=_parse_r, default=None)
        p.add_argument("--inverse", action="store_true",
                       help="apply the inverse quotient map "
                            "(needs --bipartition)")

    if p := cmd("order", help="dominance order: compare two bipartitions or "
                              "print the Hasse diagram of Bip(n)"):
        p.add_argument("--n", type=int)
        p.add_argument("--r", type=_parse_r, required=True)
        p.add_argument("--a", help="first bipartition for a comparison")
        p.add_argument("--b", help="second bipartition for a comparison")

    if p := cmd("insert", help="domino insertion of a signed permutation"):
        p.add_argument("--w", required=True, help="window, e.g. '-1 3 2'")
        p.add_argument("--r", type=_parse_r, required=True)

    if p := cmd("klbasis", help="Kazhdan-Lusztig basis of H_n"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--r", type=_parse_r, required=True)
        p.add_argument("--xi", help="exact slope p/q overriding r + 1/101")

    if p := cmd("cells", help="Kazhdan-Lusztig cells of W_n"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--r", type=_parse_r, required=True)
        p.add_argument("--xi")
        p.add_argument("--side", default="LR", choices=["L", "R", "LR"])

    if p := cmd("check-conj-a", help="compare cells with insertion fibers"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--r", type=_parse_r, required=True)
        p.add_argument("--xi")

    if p := cmd("check-cellular", help="verify the cellular-basis axiom"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--r", type=_parse_r, required=True)
        p.add_argument("--xi")

    if p := cmd("crystal", help="crystal graph of the Fock space"):
        p.add_argument("--charge", type=_parse_charge, required=True)
        p.add_argument("--e", type=int, required=True)
        p.add_argument("--n", type=int, required=True)

    if p := cmd("uglov", help="crystal vertices of rank n"):
        p.add_argument("--charge", type=_parse_charge, required=True)
        p.add_argument("--e", type=int, required=True)
        p.add_argument("--n", type=int, required=True)

    if p := cmd("canbasis", help="canonical basis of the Fock space"):
        p.add_argument("--charge", type=_parse_charge, required=True)
        p.add_argument("--e", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--r", type=_parse_r, default=None)

    if p := cmd("decmat", help="graded decomposition matrix"):
        p.add_argument("--charge", type=_parse_charge, required=True)
        p.add_argument("--e", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--r", type=_parse_r, default=None)
        p.add_argument("--v1", action="store_true", help="specialize at v = 1")

    if p := cmd("charge", help="charge attached to (r, d, e)"):
        p.add_argument("--r", type=_parse_r, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--e", type=int, required=True)
        p.add_argument("--n", type=int, default=None,
                       help="rank used to resolve r = inf")

    if p := cmd("gamma", help="crystal isomorphism between two charges"):
        p.add_argument("--mu", required=True)
        p.add_argument("--charge1", type=_parse_charge, required=True)
        p.add_argument("--charge2", type=_parse_charge, required=True)
        p.add_argument("--e", type=int, required=True)

    if p := cmd("theorem41", help="decomposition numbers vs canonical basis"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--e", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--r", type=_parse_r, required=True)

    if p := cmd("specht", help="simple labels and decomposition numbers"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--e", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--r", type=_parse_r, required=True)

    return top


def _emit(text: str):
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(data, indent: int | None = 2):
    import json

    _emit(json.dumps(data, ensure_ascii=False, indent=indent))


def _bound(args) -> dict:
    """The bound keyword for the library call: only when --bound is given,
    so that the library's own default applies otherwise."""
    return {} if args.bound is None else {"bound": args.bound}


def _run_bip(args) -> int:
    from .combinat import enumerate_bipartitions, format_bipartition

    bips = list(enumerate_bipartitions(args.n))
    if args.format == "json":
        _emit_json({"schema": "1", "n": args.n,
                    "bipartitions": [format_bipartition(b) for b in bips]})
    else:
        _emit("\n".join(format_bipartition(b) for b in bips))
    return 0


def _run_quotient(args) -> int:
    from .combinat import (Bipartition, core_and_quotient, format_bipartition,
                           format_partition, parse_bipartition,
                           parse_partition, q_r, q_r_inverse)

    if args.inverse or args.bipartition:
        if not args.bipartition or args.r is None:
            raise ValueError("inverse quotient needs --bipartition and --r")
        b = parse_bipartition(args.bipartition)
        r = resolve_r(args.r, b.size)
        p = q_r_inverse(b, r)
        out = {"schema": "1", "bipartition": format_bipartition(b), "r": r,
               "partition": format_partition(p)}
        if args.format == "json":
            _emit_json(out)
        else:
            _emit(format_partition(p))
        return 0
    if not args.partition:
        raise ValueError("need --partition or --bipartition")
    p = parse_partition(args.partition)
    core, quot = core_and_quotient(p)
    out = {"schema": "1", "partition": format_partition(p),
           "core": format_partition(core),
           "quotient": format_bipartition(Bipartition(*quot))}
    if args.r is not None:
        r = resolve_r(args.r, p.size // 2)
        out["r"] = r
        out["q_r"] = format_bipartition(q_r(p, r))
    if args.format == "json":
        _emit_json(out)
    else:
        _emit("\n".join(f"{k}: {v}" for k, v in out.items() if k != "schema"))
    return 0


def _run_order(args) -> int:
    from .combinat import format_bipartition, parse_bipartition
    from .orders import dominance_r, hasse

    if args.a or args.b:
        if not (args.a and args.b):
            raise ValueError("comparison needs both --a and --b")
        a, b = parse_bipartition(args.a), parse_bipartition(args.b)
        res = dominance_r(a, b, args.r)
        if args.format == "json":
            _emit_json({"schema": "1", "a": format_bipartition(a),
                        "b": format_bipartition(b),
                        "r": "inf" if args.r == INFINITY else args.r,
                        "le": res}, indent=None)
        else:
            _emit("true" if res else "false")
        return 0
    if args.n is None:
        raise ValueError("need --n for a Hasse diagram or --a/--b to compare")
    diagram = hasse(args.n, args.r, **_bound(args))
    _emit({"json": diagram.to_json, "dot": diagram.to_dot}
          .get(args.format, diagram.to_text)())
    return 0


def _run_insert(args) -> int:
    from .combinat import format_bipartition
    from .domino import SignedPermutation, insert, s_t_lambda, stl_json

    w = SignedPermutation.parse(args.w)
    if args.format == "json":
        _emit(stl_json(w, args.r))
        return 0
    p, q = insert(w, args.r)
    s, t, lam = s_t_lambda(w, args.r)
    _emit("\n".join([
        "P:", p.to_text(), "Q:", q.to_text(),
        f"S: {s.to_text()}", f"T: {t.to_text()}",
        f"shape: {format_bipartition(lam)}"]))
    return 0


def _run_klbasis(args) -> int:
    from .domino import _len_key
    from .hecke import kl_basis

    order = _order_from(args, args.n)
    basis = kl_basis(args.n, order, **_bound(args))
    ws = sorted(basis, key=_len_key)
    if args.format == "json":
        _emit_json({"schema": "1", "n": args.n, "xi": str(order.xi),
                    "basis": [{"w": str(w), "element": str(basis[w])}
                              for w in ws]})
    else:
        _emit("\n".join(f"C[{w}] = {basis[w]}" for w in ws))
    return 0


def _run_cells(args) -> int:
    from .domino import _len_key
    from .hecke import cells

    order = _order_from(args, args.n)
    parts = cells(args.n, order, args.side, **_bound(args))
    blocks = sorted((sorted(c, key=_len_key) for c in parts),
                    key=lambda c: _len_key(c[0]))
    if args.format == "json":
        _emit_json({"schema": "1", "n": args.n, "xi": str(order.xi),
                    "side": args.side,
                    "cells": [[str(w) for w in c] for c in blocks]})
    else:
        _emit("\n".join(" | ".join(str(w) for w in c) for c in blocks))
    return 0


def _run_check_conj_a(args) -> int:
    from .hecke import conjecture_a_report

    order = _order_from(args, args.n)
    report = conjecture_a_report(args.n, order, **_bound(args))
    _emit_json(report)
    return 0 if report["ok"] else 2


def _run_check_cellular(args) -> int:
    from .hecke import cellularity_check

    order = _order_from(args, args.n)
    report = cellularity_check(args.n, order, **_bound(args))
    _emit_json(report)
    return 0 if report["ok"] else 2


def _run_crystal(args) -> int:
    from .crystal import crystal_graph

    graph = crystal_graph(tuple(args.charge), args.e, args.n)
    _emit({"json": graph.to_json, "dot": graph.to_dot}
          .get(args.format, graph.to_text)())
    return 0


def _run_uglov(args) -> int:
    from .combinat import format_bipartition
    from .crystal import uglov_bipartitions

    bips = uglov_bipartitions(args.n, tuple(args.charge), args.e)
    if args.format == "json":
        _emit_json({"schema": "1", "n": args.n,
                    "charge": list(args.charge), "e": args.e,
                    "bipartitions": [format_bipartition(b) for b in bips]})
    else:
        _emit("\n".join(format_bipartition(b) for b in bips))
    return 0


def _run_canbasis(args) -> int:
    import json

    from .canonical import canonical_basis
    from .combinat import format_bipartition

    r = None if args.r is None else resolve_r(args.r, args.n)
    basis = canonical_basis(args.n, tuple(args.charge), args.e, r)
    mus = sorted(basis)
    if args.format == "json":
        _emit_json({"schema": "1", "n": args.n,
                    "charge": list(args.charge), "e": args.e,
                    "basis": [{"mu": format_bipartition(mu),
                               "vector": json.loads(basis[mu].to_json())}
                              for mu in mus]})
    else:
        _emit("\n".join(f"G({format_bipartition(mu)}) = {basis[mu].to_text()}"
                        for mu in mus))
    return 0


def _run_decmat(args) -> int:
    from .canonical import decomposition_matrix

    r = None if args.r is None else resolve_r(args.r, args.n)
    dm = decomposition_matrix(args.n, tuple(args.charge), args.e, r,
                              specialize_v1=args.v1)
    _emit(dm.to_json() if args.format == "json" else dm.to_tsv())
    return 0


def _run_charge(args) -> int:
    from .canonical import charge_from

    if args.r == INFINITY and args.n is None:
        raise ValueError("r = inf needs --n to resolve")
    r = resolve_r(args.r, args.n)
    s = charge_from(r, args.d, args.e)
    if args.format == "json":
        _emit_json({"schema": "1", "r": r, "d": args.d, "e": args.e,
                    "charge": list(s)}, indent=None)
    else:
        _emit(f"({s[0]},{s[1]})")
    return 0


def _run_gamma(args) -> int:
    from .canonical import gamma
    from .combinat import format_bipartition, parse_bipartition

    mu = parse_bipartition(args.mu)
    out = gamma(mu, tuple(args.charge1), tuple(args.charge2), args.e)
    if args.format == "json":
        _emit_json({"schema": "1", "mu": format_bipartition(mu),
                    "charge1": list(args.charge1),
                    "charge2": list(args.charge2), "e": args.e,
                    "image": format_bipartition(out)}, indent=None)
    else:
        _emit(format_bipartition(out))
    return 0


def _run_theorem41(args) -> int:
    from .specht import theorem41_check, theorem41_json

    r = resolve_r(args.r, args.n)
    report = theorem41_check(args.n, args.e, args.d, r, **_bound(args))
    report["schema"] = "1"
    _emit(theorem41_json(report))
    return 0 if report["status"] == "ok" else 2


def _run_specht(args) -> int:
    from .combinat import format_bipartition
    from .specht import decomposition_numbers

    r = resolve_r(args.r, args.n)
    rows, cols, entries = decomposition_numbers(args.n, args.e, args.d, r,
                                                **_bound(args))
    if args.format == "json":
        _emit_json({
            "schema": "1", "n": args.n, "e": args.e, "d": args.d, "r": r,
            "simples": [format_bipartition(x) for x in cols],
            "rows": [format_bipartition(x) for x in rows],
            "cols": [format_bipartition(x) for x in cols],
            "entries": [[format_bipartition(a), format_bipartition(b), v]
                        for (a, b), v in sorted(
                            entries.items(),
                            key=lambda kv: (format_bipartition(kv[0][0]),
                                            format_bipartition(kv[0][1])))],
        })
    else:
        head = "\t".join([""] + [format_bipartition(m) for m in cols])
        lines = [head]
        for lam in rows:
            lines.append("\t".join(
                [format_bipartition(lam)]
                + [str(entries.get((lam, mu), 0)) for mu in cols]))
        _emit("\n".join(lines))
    return 0


_RUNNERS = {
    "bip": _run_bip,
    "quotient": _run_quotient,
    "order": _run_order,
    "insert": _run_insert,
    "klbasis": _run_klbasis,
    "cells": _run_cells,
    "check-conj-a": _run_check_conj_a,
    "check-cellular": _run_check_cellular,
    "crystal": _run_crystal,
    "uglov": _run_uglov,
    "canbasis": _run_canbasis,
    "decmat": _run_decmat,
    "charge": _run_charge,
    "gamma": _run_gamma,
    "theorem41": _run_theorem41,
    "specht": _run_specht,
}


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        return _RUNNERS[args.subcommand](args)
    except (HeckebError, ValueError) as exc:
        print(f"heckeb: error: {exc}", file=sys.stderr)
        return 1


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull, so that the flush at interpreter exit
        # does not fail on the closed pipe a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
