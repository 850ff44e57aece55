"""The operations of each workload and the canonical text of their outputs.

An operation is a call into heckeb exactly as the CLI makes it (same entry
point, same arguments, no explicit ``bound``).  Its canonical output is what
the reference digest in ``references.json`` is taken over.  heckeb itself is
imported only inside the functions here, after the worker has timed its
set-up, and its functions are looked up on their module at call time, so a
traced run calls the tracer's wrappers.
"""

from __future__ import annotations

import hashlib
import json
import random
import shlex

WORKLOADS = ("cli-readme", "conj-a-rank4", "fock-rank11", "theorem41-rank3")

# r for conj-a-rank4, chosen by the seed; seed 0 gives r = 1, the ROADMAP
# baseline.  r = 0 is left out: its report costs about 10% less than the
# other three, which would make wall_s depend on the seed more than on the
# code.
CONJ_A_RANKS = (1, 2, 3)

FOCK_RANK = 11
FOCK_CASES = tuple((s, e) for s in ((0, 0), (1, 0), (2, 0)) for e in (2, 3))

THEOREM41_CASES = tuple((e, d, r) for e in (2, 3) for d in range(e)
                        for r in (0, 1, 2))

# The commands of the README's CLI section, in README order.
README_COMMANDS = (
    ("bip", "--n", "3"),
    ("quotient", "--partition", "643", "--r", "1"),
    ("order", "--n", "3", "--r", "0", "--format", "dot"),
    ("order", "--a", "(1;1)", "--b", "(2;∅)", "--r", "0"),
    ("insert", "--w", "-1 3 2", "--r", "0"),
    ("klbasis", "--n", "2", "--r", "0"),
    ("cells", "--n", "3", "--r", "1", "--side", "LR"),
    ("check-conj-a", "--n", "3", "--r", "1"),
    ("check-cellular", "--n", "3", "--r", "1"),
    ("crystal", "--charge", "0,0", "--e", "2", "--n", "4", "--format", "dot"),
    ("uglov", "--charge", "2,0", "--e", "2", "--n", "4"),
    ("canbasis", "--charge", "2,0", "--e", "2", "--n", "4"),
    ("decmat", "--charge", "0,0", "--e", "2", "--n", "4", "--v1",
     "--format", "tsv"),
    ("charge", "--r", "2", "--d", "0", "--e", "2"),
    ("gamma", "--mu", "(2;2)", "--charge1", "0,0", "--charge2", "2,0",
     "--e", "2"),
    ("theorem41", "--n", "3", "--e", "2", "--d", "0", "--r", "1"),
    ("specht", "--n", "2", "--e", "2", "--d", "0", "--r", "0"),
)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_output(exit_code: int, stdout: bytes) -> bytes:
    """Canonical output of one CLI command: its exit code and stdout bytes."""
    return b"exit %d\n" % exit_code + stdout


def cli_label(argv) -> str:
    return "heckeb " + shlex.join(argv)


def cli_commands(seed: int):
    """The README commands in the order the seed gives."""
    commands = list(README_COMMANDS)
    random.Random(seed).shuffle(commands)
    return commands


def operation_count(workload: str) -> int:
    return {"conj-a-rank4": 1, "fock-rank11": len(FOCK_CASES),
            "theorem41-rank3": len(THEOREM41_CASES),
            "cli-readme": len(README_COMMANDS)}[workload]


class Operation:
    """One call into heckeb, the canonical bytes of its result, and whether
    the result's own verdict is ok."""

    def __init__(self, label, call, canonical, verdict=lambda value: True):
        self.label = label
        self.call = call
        self.canonical = canonical
        self.verdict = verdict


def _conj_a(seed: int):
    from heckeb import hecke
    from heckeb.laurent import XiOrder

    r = CONJ_A_RANKS[seed % len(CONJ_A_RANKS)]
    order = XiOrder.for_r(r)

    def canonical(report) -> bytes:
        # The report as `heckeb check-conj-a` prints it, then a digest of the
        # KL basis the report was built from.  conjecture_a_report passes
        # its default bound on positionally, so this lookup hits its cache.
        basis = hecke.kl_basis(4, order, hecke.KL_BOUND)
        h = hashlib.sha256()
        for w in sorted(basis, key=hecke._len_key):
            h.update(f"C[{w}] = {basis[w]}\n".encode())
        return (json.dumps(report, ensure_ascii=False, indent=2)
                + f"\nkl_basis sha256 {h.hexdigest()}\n").encode()

    return [Operation(f"check-conj-a --n 4 --r {r}",
                      lambda: hecke.conjecture_a_report(4, order), canonical,
                      lambda report: report["ok"] is True)]


def _fock(seed: int):
    from heckeb import canonical

    cases = list(FOCK_CASES)
    random.Random(seed).shuffle(cases)
    return [Operation(f"decmat --charge {s[0]},{s[1]} --e {e} --n {FOCK_RANK}"
                      " --format json",
                      lambda s=s, e=e: canonical.decomposition_matrix(
                          FOCK_RANK, s, e, None, specialize_v1=False),
                      lambda dm: dm.to_json().encode())
            for s, e in cases]


def _theorem41(seed: int):
    from heckeb import specht
    from heckeb.combinat import format_bipartition

    def canonical(e, d, r):
        def text(report) -> bytes:
            # The report, then the decomposition numbers it compared, read
            # back from the cache entry theorem41_check filled.
            _, _, entries = specht.decomposition_numbers(
                3, e, d, r, specht.SPECHT_BOUND)
            rows = sorted([format_bipartition(a), format_bipartition(b), v]
                          for (a, b), v in entries.items())
            return (specht.theorem41_json(report) + "\n"
                    + json.dumps(rows, ensure_ascii=False) + "\n").encode()
        return text

    cases = list(THEOREM41_CASES)
    random.Random(seed).shuffle(cases)
    return [Operation(f"theorem41 --n 3 --e {e} --d {d} --r {r}",
                      lambda e=e, d=d, r=r: specht.theorem41_check(3, e, d, r),
                      canonical(e, d, r),
                      lambda report: report["status"] == "ok")
            for e, d, r in cases]


def _cli_in_process(seed: int):
    """The README commands run through heckeb.cli.run in this process, with
    stdout captured; the traced run of cli-readme uses these."""
    import contextlib
    import io

    from heckeb import cli

    def runner(argv):
        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.run(list(argv))
            return code, out.getvalue().encode("utf-8")
        return call

    return [Operation(cli_label(argv), runner(argv),
                      lambda result: cli_output(*result),
                      lambda result: result[0] == 0)
            for argv in cli_commands(seed)]


def operations(workload: str, seed: int) -> list[Operation]:
    return {"conj-a-rank4": _conj_a, "fock-rank11": _fock,
            "theorem41-rank3": _theorem41,
            "cli-readme": _cli_in_process}[workload](seed)
