"""Command-line surface.

Each subcommand runs one library computation.  All configuration is by
flags and output ordering is deterministic, so runs are byte-identical for
fixed inputs.  Exit status: 0 on success, 2 when a check subcommand reports
a failure, 1 on usage errors, and 141 (128 + SIGPIPE, as for a process the
signal ends) with nothing on stderr when the reader of stdout closes it
early, as `heckeb ... | head` does.

A subcommand imports only what it runs.  Every command is a fresh
interpreter, and loading all of the library (and building every
subcommand's parser) would cost about a third of a small command's time;
so this module imports nothing of the library at the top but `heckeb` and
`heckeb.errors`, each `_run_*` imports the library names it calls, and
`run` builds only the parser of the subcommand named by its first argument.
Each subcommand is declared once, by the `_command` decorator on its runner.

A subcommand that prints a value calls its `to_<format>` for --format, so
the formats it declares are the value's own `to_<format>` methods.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import INFINITY, resolve_r
from .errors import HeckebError, InvalidSlope

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
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"r must be an integer or 'inf', got {text!r}") from None


def _parse_charge(text: str) -> tuple[int, int]:
    try:
        s0, s1 = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"charge must be 's0,s1', got {text!r}") from None
    return s0, s1


# name: (runner, help, arguments, formats, bounded), in declaration order
_COMMANDS = {}


def _command(name: str, help: str, *arguments, formats=(), bounded=False):
    """Declare the decorated runner as subcommand name.  Each argument is
    the (flags, keywords) of one add_argument call; formats are those it
    renders besides text and json, or None for a JSON report, which takes
    no --format; bounded says whether --bound overrides its size bound."""
    def declare(runner):
        _COMMANDS[name] = (runner, help, arguments, formats, bounded)
        return runner
    return declare


def _arg(*flags, **keywords):
    return flags, keywords


_N = _arg("--n", type=int, required=True)
_R = _arg("--r", type=_parse_r, required=True)
_R_OPTIONAL = _arg("--r", type=_parse_r)
_E = _arg("--e", type=int, required=True)
# The shared groups: a Fock space and a case of Theorem 4.1.
_FOCK = (_arg("--charge", type=_parse_charge, required=True), _E, _N)
_CASE = (_N, _E, _arg("--d", type=int, required=True), _R)


def _slope(xi_help=None):
    # the shared group of a rank and a weight order: --r, --xi or both
    return _N, _R_OPTIONAL, _arg("--xi", help=xi_help)


def _order_from(args, n: int):
    from fractions import Fraction

    from .laurent import XiOrder

    r = None if args.r is None else resolve_r(args.r, n)
    if not args.xi:
        if r is None:
            raise ValueError("need --r or --xi")
        return XiOrder.for_r(r)
    try:
        xi = Fraction(args.xi)
    except ZeroDivisionError:
        raise InvalidSlope(f"xi = {args.xi} has a zero denominator") from None
    order = XiOrder(xi)
    if r is not None and order.r != r:
        raise ValueError(f"floor(xi) = {order.r} inconsistent with r = {r}")
    return order


def build_parser(name: str | None = None) -> _Parser:
    """The parser of every subcommand, or of name's alone when name is one.
    Either way the top-level usage lists every subcommand: the metavar
    repeats the choices that argparse writes for the whole tree."""
    top = _Parser(prog="heckeb")
    only = name in _COMMANDS
    sub = top.add_subparsers(
        dest="subcommand", required=True,
        **({"metavar": "{" + ",".join(_COMMANDS) + "}"} if only else {}))
    for cmd in [name] if only else _COMMANDS:
        _, help, arguments, formats, bounded = _COMMANDS[cmd]
        p = sub.add_parser(cmd, help=help)
        if formats is not None:
            p.add_argument("--format", default="text",
                           choices=["json", *formats, "text"])
        if bounded:
            p.add_argument("--bound", type=int, default=None,
                           help="override the built-in size bound")
        for flags, keywords in arguments:
            p.add_argument(*flags, **keywords)
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


@_command("bip", "enumerate bipartitions of n", _N)
def _run_bip(args) -> int:
    from .combinat import enumerate_bipartitions, format_bipartition

    bips = list(enumerate_bipartitions(args.n))
    if args.format == "json":
        _emit_json({"schema": "1", "n": args.n,
                    "bipartitions": [format_bipartition(b) for b in bips]})
    else:
        _emit("\n".join(format_bipartition(b) for b in bips))
    return 0


@_command("quotient", "2-quotient maps",
          _arg("--partition", help="partition, e.g. 643 or 10.4.3"),
          _arg("--bipartition", help="bipartition, e.g. '(21;∅)'"),
          _R_OPTIONAL)
def _run_quotient(args) -> int:
    from .combinat import (Bipartition, core_and_quotient, format_bipartition,
                           format_partition, parse_bipartition,
                           parse_partition, q_r, q_r_inverse)

    if args.bipartition:
        if args.partition:
            raise ValueError("give --partition or --bipartition, not both")
        if args.r is None:
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
    quotient = Bipartition(*quot)
    out = {"schema": "1", "partition": format_partition(p),
           "core": format_partition(core),
           "quotient": format_bipartition(quotient)}
    if args.r is not None:
        r = resolve_r(args.r, quotient.size)
        out["r"] = r
        out["q_r"] = format_bipartition(q_r(p, r))
    if args.format == "json":
        _emit_json(out)
    else:
        _emit("\n".join(f"{k}: {v}" for k, v in out.items() if k != "schema"))
    return 0


@_command("order", "dominance order: compare two bipartitions or print the "
                   "Hasse diagram of Bip(n)",
          _arg("--n", type=int), _R,
          _arg("--a", help="first bipartition for a comparison"),
          _arg("--b", help="second bipartition for a comparison"),
          formats=("dot",), bounded=True)
def _run_order(args) -> int:
    from .combinat import format_bipartition, parse_bipartition
    from .orders import dominance_r, hasse

    if args.a or args.b:
        if not (args.a and args.b):
            raise ValueError("comparison needs both --a and --b")
        if args.n is not None or args.bound is not None \
                or args.format == "dot":
            raise ValueError("a comparison takes no --n, --bound or "
                             "--format dot")
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
    _emit(getattr(diagram, f"to_{args.format}")())
    return 0


@_command("insert", "domino insertion of a signed permutation",
          _arg("--w", required=True, help="window, e.g. '-1 3 2'"), _R)
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


@_command("klbasis", "Kazhdan-Lusztig basis of H_n",
          *_slope("exact slope p/q overriding r + 1/101"), bounded=True)
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


@_command("cells", "Kazhdan-Lusztig cells of W_n", *_slope(),
          _arg("--side", default="LR", choices=["L", "R", "LR"]),
          bounded=True)
def _run_cells(args) -> int:
    from .domino import _len_key
    from .hecke import cells

    order = _order_from(args, args.n)
    parts = cells(args.n, order, args.side, **_bound(args))
    blocks = [sorted(c, key=_len_key) for c in parts]
    if args.format == "json":
        _emit_json({"schema": "1", "n": args.n, "xi": str(order.xi),
                    "side": args.side,
                    "cells": [[str(w) for w in c] for c in blocks]})
    else:
        _emit("\n".join(" | ".join(str(w) for w in c) for c in blocks))
    return 0


@_command("check-conj-a", "compare cells with insertion fibers",
          *_slope(), formats=None, bounded=True)
def _run_check_conj_a(args) -> int:
    from .hecke import conjecture_a_report

    order = _order_from(args, args.n)
    report = conjecture_a_report(args.n, order, **_bound(args))
    _emit_json(report)
    return 0 if report["ok"] else 2


@_command("check-cellular", "verify the cellular-basis axiom", *_slope(),
          formats=None, bounded=True)
def _run_check_cellular(args) -> int:
    from .hecke import cellularity_check

    order = _order_from(args, args.n)
    report = cellularity_check(args.n, order, **_bound(args))
    _emit_json(report)
    return 0 if report["ok"] else 2


@_command("crystal", "crystal graph of the Fock space", *_FOCK,
          formats=("dot",))
def _run_crystal(args) -> int:
    from .crystal import crystal_graph

    graph = crystal_graph(tuple(args.charge), args.e, args.n)
    _emit(getattr(graph, f"to_{args.format}")())
    return 0


@_command("uglov", "crystal vertices of rank n", *_FOCK)
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


@_command("canbasis", "canonical basis of the Fock space", *_FOCK,
          _R_OPTIONAL)
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


@_command("decmat", "graded decomposition matrix", *_FOCK, _R_OPTIONAL,
          _arg("--v1", action="store_true", help="specialize at v = 1"),
          formats=("tsv",))
def _run_decmat(args) -> int:
    from .canonical import decomposition_matrix

    r = None if args.r is None else resolve_r(args.r, args.n)
    dm = decomposition_matrix(args.n, tuple(args.charge), args.e, r,
                              specialize_v1=args.v1)
    _emit(getattr(dm, f"to_{args.format}")())
    return 0


@_command("charge", "charge attached to (r, d, e)", _R,
          _arg("--d", type=int, required=True), _E,
          _arg("--n", type=int, help="rank used to resolve r = inf"))
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


@_command("gamma", "crystal isomorphism between two charges",
          _arg("--mu", required=True),
          _arg("--charge1", type=_parse_charge, required=True),
          _arg("--charge2", type=_parse_charge, required=True), _E)
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


@_command("theorem41", "decomposition numbers vs canonical basis",
          *_CASE, formats=None, bounded=True)
def _run_theorem41(args) -> int:
    from .specht import theorem41_check, theorem41_json

    r = resolve_r(args.r, args.n)
    report = theorem41_check(args.n, args.e, args.d, r, **_bound(args))
    report["schema"] = "1"
    _emit(theorem41_json(report))
    return 0 if report["status"] == "ok" else 2


@_command("specht", "simple labels and decomposition numbers", *_CASE,
          formats=("tsv",), bounded=True)
def _run_specht(args) -> int:
    from .combinat import format_bipartition, render_tsv
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
        _emit(render_tsv(rows, cols,
                         lambda lam, mu: entries.get((lam, mu), 0)))
    return 0


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        return _COMMANDS[args.subcommand][0](args)
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
