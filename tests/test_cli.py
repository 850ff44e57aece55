import hashlib
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from heckeb.cli import run

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

# The subcommands that take a weight order as --r, --xi or both.
SLOPE_COMMANDS = ("klbasis", "cells", "check-conj-a", "check-cellular")

# One malformed input per check that must raise a typed error, not an
# assertion that python -O strips.
MALFORMED = {
    "repeated-letter": ("insert", "--w", "1 1", "--r", "0"),
    "letter-out-of-range": ("insert", "--w", "1 3", "--r", "0"),
    "side": ("cells", "--n", "2", "--r", "0", "--side", "X"),
    "negative-r-order": ("order", "--a", "(1;1)", "--b", "(2;∅)", "--r", "-1"),
    "negative-r-insert": ("insert", "--w", "-1 3 2", "--r", "-1"),
    "e-below-two-fock": ("canbasis", "--charge", "0,0", "--e", "1", "--n", "2"),
    "e-below-two-specht": ("specht", "--n", "2", "--e", "1", "--d", "0",
                           "--r", "0"),
    "e-below-two-crystal": ("crystal", "--charge", "0,0", "--e", "1",
                            "--n", "2"),
    "e-below-two-uglov": ("uglov", "--charge", "0,0", "--e", "1", "--n", "2"),
    "e-below-two-charge": ("charge", "--r", "2", "--d", "0", "--e", "0"),
    "e-below-two-gamma": ("gamma", "--mu", "(2;2)", "--charge1", "0,0",
                          "--charge2", "2,0", "--e", "0"),
    "negative-r-charge": ("charge", "--r", "-1", "--d", "0", "--e", "2"),
    "negative-r-quotient": ("quotient", "--partition", "643", "--r", "-1"),
    "partition-not-decreasing": ("quotient", "--partition", "46"),
    "negative-n-klbasis": ("klbasis", "--n", "-1", "--r", "0"),
    "negative-n-conj-a": ("check-conj-a", "--n", "-1", "--r", "0"),
    "negative-n-bip": ("bip", "--n", "-1"),
    "negative-n-specht": ("specht", "--n", "-1", "--e", "2", "--d", "0",
                          "--r", "0"),
    **{f"xi-zero-denominator-{name}": (name, "--n", "2", "--r", "0",
                                       "--xi", "1/0")
       for name in SLOPE_COMMANDS},
}

# The README's CLI commands with the SHA-256 of b"exit <code>\n" + stdout,
# as the benchmark's reference file records them.
README_DIGESTS = {
    tuple(shlex.split(label)[1:]): digest
    for label, digest in json.loads(
        (ROOT / "perfbench" / "references.json").read_text("utf-8")).items()
    if label.startswith("heckeb ")}


SUBCOMMANDS = ("{bip,quotient,order,insert,klbasis,cells,check-conj-a,"
               "check-cellular,crystal,uglov,canbasis,decmat,charge,gamma,"
               "theorem41,specht}")
TOP_USAGE = f"usage: heckeb [-h]\n              {SUBCOMMANDS}\n              ...\n"
BIP_USAGE = "usage: heckeb bip [-h] [--format {json,text}] --n N\n"

# `heckeb <subcommand> -h` at 80 columns.
SUBCOMMAND_HELP = {
    "bip": """\
usage: heckeb bip [-h] [--format {json,text}] --n N

options:
  -h, --help            show this help message and exit
  --format {json,text}
  --n N
""",
    "quotient": """\
usage: heckeb quotient [-h] [--format {json,text}] [--partition PARTITION]
                       [--bipartition BIPARTITION] [--r R]

options:
  -h, --help            show this help message and exit
  --format {json,text}
  --partition PARTITION
                        partition, e.g. 643 or 10.4.3
  --bipartition BIPARTITION
                        bipartition, e.g. '(21;∅)'
  --r R
""",
    "order": """\
usage: heckeb order [-h] [--format {json,dot,text}] [--bound BOUND] [--n N]
                    --r R [--a A] [--b B]

options:
  -h, --help            show this help message and exit
  --format {json,dot,text}
  --bound BOUND         override the built-in size bound
  --n N
  --r R
  --a A                 first bipartition for a comparison
  --b B                 second bipartition for a comparison
""",
    "insert": """\
usage: heckeb insert [-h] [--format {json,text}] --w W --r R

options:
  -h, --help            show this help message and exit
  --format {json,text}
  --w W                 window, e.g. '-1 3 2'
  --r R
""",
    "klbasis": """\
usage: heckeb klbasis [-h] [--format {json,text}] [--bound BOUND] --n N
                      [--r R] [--xi XI]

options:
  -h, --help            show this help message and exit
  --format {json,text}
  --bound BOUND         override the built-in size bound
  --n N
  --r R
  --xi XI               exact slope p/q overriding r + 1/101
""",
    "cells": """\
usage: heckeb cells [-h] [--format {json,text}] [--bound BOUND] --n N [--r R]
                    [--xi XI] [--side {L,R,LR}]

options:
  -h, --help            show this help message and exit
  --format {json,text}
  --bound BOUND         override the built-in size bound
  --n N
  --r R
  --xi XI
  --side {L,R,LR}
""",
    "check-conj-a": """\
usage: heckeb check-conj-a [-h] [--bound BOUND] --n N [--r R] [--xi XI]

options:
  -h, --help     show this help message and exit
  --bound BOUND  override the built-in size bound
  --n N
  --r R
  --xi XI
""",
    "check-cellular": """\
usage: heckeb check-cellular [-h] [--bound BOUND] --n N [--r R] [--xi XI]

options:
  -h, --help     show this help message and exit
  --bound BOUND  override the built-in size bound
  --n N
  --r R
  --xi XI
""",
    "crystal": """\
usage: heckeb crystal [-h] [--format {json,dot,text}] --charge CHARGE --e E
                      --n N

options:
  -h, --help            show this help message and exit
  --format {json,dot,text}
  --charge CHARGE
  --e E
  --n N
""",
    "uglov": """\
usage: heckeb uglov [-h] [--format {json,text}] --charge CHARGE --e E --n N

options:
  -h, --help            show this help message and exit
  --format {json,text}
  --charge CHARGE
  --e E
  --n N
""",
    "canbasis": """\
usage: heckeb canbasis [-h] [--format {json,text}] --charge CHARGE --e E --n N
                       [--r R]

options:
  -h, --help            show this help message and exit
  --format {json,text}
  --charge CHARGE
  --e E
  --n N
  --r R
""",
    "decmat": """\
usage: heckeb decmat [-h] [--format {json,tsv,text}] --charge CHARGE --e E --n
                     N [--r R] [--v1]

options:
  -h, --help            show this help message and exit
  --format {json,tsv,text}
  --charge CHARGE
  --e E
  --n N
  --r R
  --v1                  specialize at v = 1
""",
    "charge": """\
usage: heckeb charge [-h] [--format {json,text}] --r R --d D --e E [--n N]

options:
  -h, --help            show this help message and exit
  --format {json,text}
  --r R
  --d D
  --e E
  --n N                 rank used to resolve r = inf
""",
    "gamma": """\
usage: heckeb gamma [-h] [--format {json,text}] --mu MU --charge1 CHARGE1
                    --charge2 CHARGE2 --e E

options:
  -h, --help            show this help message and exit
  --format {json,text}
  --mu MU
  --charge1 CHARGE1
  --charge2 CHARGE2
  --e E
""",
    "theorem41": """\
usage: heckeb theorem41 [-h] [--bound BOUND] --n N --e E --d D --r R

options:
  -h, --help     show this help message and exit
  --bound BOUND  override the built-in size bound
  --n N
  --e E
  --d D
  --r R
""",
    "specht": """\
usage: heckeb specht [-h] [--format {json,tsv,text}] [--bound BOUND] --n N --e
                     E --d D --r R

options:
  -h, --help            show this help message and exit
  --format {json,tsv,text}
  --bound BOUND         override the built-in size bound
  --n N
  --e E
  --d D
  --r R
""",
}

# argv: (exit code, stdout, stderr) of `python -m heckeb.cli argv` at 80
# columns, captured when every command built the whole parser.
USAGE_CAPTURES = {
    (): (1, "", TOP_USAGE + "heckeb: error: the following arguments are "
                            "required: subcommand\n"),
    ("-h",): (0, TOP_USAGE + f"""
positional arguments:
  {SUBCOMMANDS}
    bip                 enumerate bipartitions of n
    quotient            2-quotient maps
    order               dominance order: compare two bipartitions or print the
                        Hasse diagram of Bip(n)
    insert              domino insertion of a signed permutation
    klbasis             Kazhdan-Lusztig basis of H_n
    cells               Kazhdan-Lusztig cells of W_n
    check-conj-a        compare cells with insertion fibers
    check-cellular      verify the cellular-basis axiom
    crystal             crystal graph of the Fock space
    uglov               crystal vertices of rank n
    canbasis            canonical basis of the Fock space
    decmat              graded decomposition matrix
    charge              charge attached to (r, d, e)
    gamma               crystal isomorphism between two charges
    theorem41           decomposition numbers vs canonical basis
    specht              simple labels and decomposition numbers

options:
  -h, --help            show this help message and exit
""", ""),
    **{(name, "-h"): (0, text, "") for name, text in SUBCOMMAND_HELP.items()},
    ("nosuch",): (1, "", TOP_USAGE + (
        "heckeb: error: argument subcommand: invalid choice: 'nosuch' "
        "(choose from 'bip', 'quotient', 'order', 'insert', 'klbasis', "
        "'cells', 'check-conj-a', 'check-cellular', 'crystal', 'uglov', "
        "'canbasis', 'decmat', 'charge', 'gamma', 'theorem41', "
        "'specht')\n")),
    ("bip",): (1, "", BIP_USAGE + "heckeb: error: the following arguments "
                                  "are required: --n\n"),
    # an error of the top-level parser after a subcommand's name
    ("bip", "--n", "3", "extra"): (1, "", TOP_USAGE + "heckeb: error: "
                                   "unrecognized arguments: extra\n"),
}


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasics:
    def test_bip(self, capsys):
        code, out, _ = invoke(capsys, "bip", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["(11;∅)", "(2;∅)", "(1;1)",
                                    "(∅;11)", "(∅;2)"]

    def test_bip_json(self, capsys):
        code, out, _ = invoke(capsys, "bip", "--n", "1", "--format", "json")
        data = json.loads(out)
        assert code == 0 and data["schema"] == "1"

    def test_quotient_roundtrip(self, capsys):
        code, out, _ = invoke(capsys, "quotient", "--partition", "643",
                              "--r", "1")
        assert code == 0
        q_r_line = [l for l in out.splitlines() if l.startswith("q_r")][0]
        bip = q_r_line.split(": ")[1]
        code2, out2, _ = invoke(capsys, "quotient", "--bipartition", bip,
                                "--r", "1")
        assert code2 == 0 and out2.strip() == "643"

    def test_charge(self, capsys):
        code, out, _ = invoke(capsys, "charge", "--r", "2", "--d", "0",
                              "--e", "2")
        assert code == 0 and out.strip() == "(2,0)"

    def test_gamma(self, capsys):
        code, out, _ = invoke(capsys, "gamma", "--mu", "(2;2)",
                              "--charge1", "0,0", "--charge2", "2,0",
                              "--e", "2")
        assert code == 0 and out.strip() == "(21;1)"


class TestGoldenOutputs:
    def test_order_chain(self, capsys):
        code, out, _ = invoke(capsys, "order", "--n", "2", "--r", "0",
                              "--format", "text")
        assert code == 0
        assert out.strip() == \
            "(∅;11)  <|  (11;∅)  <|  (1;1)  <|  (∅;2)  <|  (2;∅)"

    def test_order_compare(self, capsys):
        code, out, _ = invoke(capsys, "order", "--a", "(1;1)", "--b", "(2;∅)",
                              "--r", "0")
        assert code == 0 and out.strip() == "true"

    def test_crystal_dot(self, capsys):
        code, out, _ = invoke(capsys, "crystal", "--charge", "0,0", "--e", "2",
                              "--n", "4", "--format", "dot")
        assert code == 0
        assert '"(2;1)" -> "(2;2)" [label="1"]' in out

    def test_uglov(self, capsys):
        code, out, _ = invoke(capsys, "uglov", "--charge", "2,0", "--e", "2",
                              "--n", "4")
        assert code == 0
        assert set(out.split()) == {"(4;∅)", "(31;∅)", "(3;1)", "(21;1)"}

    def test_decmat_tsv(self, capsys):
        code, out, _ = invoke(capsys, "decmat", "--charge", "0,0", "--e", "2",
                              "--n", "1", "--v1", "--format", "tsv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "\t(1;∅)"
        assert set(lines[1:]) == {"(1;∅)\t1", "(∅;1)\t1"}

    def test_insert_json(self, capsys):
        code, out, _ = invoke(capsys, "insert", "--w", "-1 3 2", "--r", "0",
                              "--format", "json")
        data = json.loads(out)
        assert code == 0 and data["shape"] == "(1;2)"

    def test_readme_commands_byte_identical(self, capsys):
        assert len(README_DIGESTS) == 17
        wrong = []
        for argv, digest in README_DIGESTS.items():
            code, out, _ = invoke(capsys, *argv)
            got = hashlib.sha256(b"exit %d\n" % code + out.encode("utf-8"))
            if got.hexdigest() != digest:
                wrong.append(shlex.join(argv))
        assert wrong == []

    def test_specht_rank_zero(self, capsys):
        assert invoke(capsys, "specht", "--n", "0", "--e", "2", "--d", "0",
                      "--r", "0") == (0, "\t(∅;∅)\n(∅;∅)\t1\n", "")

    def test_theorem41_rank_zero(self, capsys):
        assert invoke(capsys, "theorem41", "--n", "0", "--e", "3", "--d", "1",
                      "--r", "0") == (0, """{
  "n": 0,
  "e": 3,
  "d": 1,
  "r": 0,
  "assumptions": [
    "cells match domino insertion fibers (checked internally)",
    "cell modules realize the standard modules, so rows are labeled by shapes (assumed, not checkable here)"
  ],
  "status": "ok",
  "details": [],
  "charge": [
    -2,
    0
  ],
  "schema": "1"
}
""", "")

    def test_determinism(self, capsys):
        a = invoke(capsys, "klbasis", "--n", "2", "--r", "0")
        b = invoke(capsys, "klbasis", "--n", "2", "--r", "0")
        assert a == b


class TestChecksAndExitCodes:
    def test_check_conj_a_ok(self, capsys):
        code, out, _ = invoke(capsys, "check-conj-a", "--n", "2", "--r", "0")
        assert code == 0
        assert json.loads(out)["ok"]

    def test_check_cellular_ok(self, capsys):
        code, out, _ = invoke(capsys, "check-cellular", "--n", "2", "--r", "0")
        assert code == 0
        assert json.loads(out)["ok"]

    def test_theorem41_ok(self, capsys):
        code, out, _ = invoke(capsys, "theorem41", "--n", "2", "--e", "2",
                              "--d", "0", "--r", "0")
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    def test_specht_json(self, capsys):
        code, out, _ = invoke(capsys, "specht", "--n", "2", "--e", "2",
                              "--d", "0", "--r", "0", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["simples"] == ["(1;1)", "(2;∅)"]

    def test_usage_error_exit_one(self, capsys):
        code, _, err = invoke(capsys, "order", "--r", "0")
        assert code == 1 and "error" in err
        code, _, err = invoke(capsys, "nosuch")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("bip", "--n", "2", "--jobs", "2"),
        ("bip", "--n", "2", "--bound", "0"),
        ("check-conj-a", "--n", "2", "--r", "0", "--format", "json"),
        ("bip", "--n", "3", "--format", "dot"),
        ("quotient", "--bipartition", "(2;1)", "--r", "1", "--inverse"),
    ], ids=["jobs", "bound", "format-on-json-report", "format-not-rendered",
            "inverse"])
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert_one_error_line(err)

    @pytest.mark.parametrize("argv", [
        ("quotient", "--partition", "643", "--bipartition", "(2;1)",
         "--r", "1"),
        ("order", "--n", "3", "--a", "(1;1)", "--b", "(2;∅)", "--r", "0"),
        ("order", "--a", "(1;1)", "--b", "(2;∅)", "--r", "0",
         "--bound", "3"),
        ("order", "--a", "(1;1)", "--b", "(2;∅)", "--r", "0",
         "--format", "dot"),
    ], ids=["quotient-both-ways", "compare-n", "compare-bound",
            "compare-dot"])
    def test_flags_the_mode_does_not_read_are_usage_errors(self, capsys,
                                                            argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert_one_error_line(err)
        assert len(err.splitlines()) == 1

    def test_order_compare_json(self, capsys):
        code, out, _ = invoke(capsys, "order", "--a", "(1;1)", "--b", "(2;∅)",
                              "--r", "0", "--format", "json")
        assert code == 0 and json.loads(out)["le"] is True

    @pytest.mark.parametrize("name", [
        "bip", "quotient", "order", "insert", "klbasis", "cells", "crystal",
        "uglov", "canbasis", "decmat", "charge", "gamma", "specht"])
    def test_each_subcommand_takes_the_formats_it_renders(self, capsys,
                                                           name):
        rendered = {"order": "dot", "crystal": "dot", "decmat": "tsv",
                    "specht": "tsv"}
        for fmt in ("text", "json", "dot", "tsv"):
            # a valid --format reaches -h and exits 0; argparse refuses a
            # choice when it reads it, before -h
            code, _, _ = invoke(capsys, name, "--format", fmt, "-h")
            assert code == (0 if fmt in ("text", "json", rendered.get(name))
                            else 1), fmt

    @pytest.mark.parametrize("name", SLOPE_COMMANDS)
    @pytest.mark.parametrize("xi", ["1/3", "3/2"])
    def test_xi_alone_gives_r(self, capsys, name, xi):
        alone = invoke(capsys, name, "--n", "2", "--xi", xi)
        assert alone[0] == 0
        assert alone == invoke(capsys, name, "--n", "2", "--xi", xi,
                               "--r", str(int(Fraction(xi))))

    @pytest.mark.parametrize("name", SLOPE_COMMANDS)
    def test_weight_order_needs_r_or_xi(self, capsys, name):
        assert invoke(capsys, name, "--n", "2") == (
            1, "", "heckeb: error: need --r or --xi\n")

    def test_xi_consistency_enforced(self, capsys):
        code, _, err = invoke(capsys, "klbasis", "--n", "2", "--r", "1",
                              "--xi", "1/2")
        assert code == 1 and "inconsistent" in err

    def test_integer_xi_is_a_usage_error(self, capsys):
        code, out, err = invoke(capsys, "klbasis", "--n", "2", "--r", "0",
                                "--xi", "2")
        assert code == 1 and out == ""
        assert err.splitlines() == ["heckeb: error: xi = 2 must not be an "
                                    "integer"]


def python(*args):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="utf-8")
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, encoding="utf-8",
                          timeout=120)


def assert_one_error_line(err):
    assert "Traceback" not in err
    assert [l for l in err.splitlines()
            if l.startswith("heckeb: error:")] == err.splitlines()[-1:]


class TestMalformedInput:
    @pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
    def test_in_process(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert_one_error_line(err)

    @pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimize"])
    @pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
    def test_subprocess(self, flags, argv):
        done = python(*flags, "-m", "heckeb.cli", *argv)
        assert done.returncode == 1 and done.stdout == ""
        assert_one_error_line(done.stderr)


@pytest.mark.parametrize("argv", USAGE_CAPTURES,
                         ids=[" ".join(a) or "no-arguments"
                              for a in USAGE_CAPTURES])
def test_help_and_usage_byte_identical(argv):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="utf-8",
               COLUMNS="80")
    done = subprocess.run([sys.executable, "-m", "heckeb.cli", *argv],
                          env=env, capture_output=True, timeout=120)
    assert (done.returncode, done.stdout.decode("utf-8"),
            done.stderr.decode("utf-8")) == USAGE_CAPTURES[argv]


def loaded_after(code):
    """The sorted names of the heckeb modules, and whether dataclasses is
    loaded, after a fresh interpreter runs code; code's own stdout goes to
    a buffer."""
    done = python("-c", "import contextlib, io, json, sys\n"
                        "with contextlib.redirect_stdout(io.StringIO()):\n"
                        + "".join(f"    {line}\n" for line in code) +
                        "print(json.dumps([sorted(m for m in sys.modules\n"
                        "    if m.split('.')[0] == 'heckeb'),\n"
                        "    'dataclasses' in sys.modules]))")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_library_module():
    modules, _ = loaded_after(["import heckeb.cli"])
    assert modules == ["heckeb", "heckeb.cli", "heckeb.errors"]


def test_bip_loads_only_combinat():
    modules, _ = loaded_after(["from heckeb import cli",
                               "assert cli.run(['bip', '--n', '3']) == 0"])
    assert modules == ["heckeb", "heckeb.cli", "heckeb.combinat",
                       "heckeb.errors"]
    assert not {"heckeb.hecke", "heckeb.specht", "heckeb.canonical"} & set(
        modules)


def test_no_module_loads_dataclasses():
    names = sorted(p.stem for p in (ROOT / "src" / "heckeb").glob("*.py")
                   if p.stem != "__init__")
    modules, dataclasses = loaded_after(
        [f"import heckeb.{name}" for name in names])
    assert len(modules) == len(names) + 1
    assert dataclasses is False


def test_import_builds_no_tables():
    done = python("-c", "import heckeb.cli\n"
                        "from heckeb.cyclo import _powers\n"
                        "from heckeb.domino import group_elements, kernel\n"
                        "from heckeb.specht import _generic_data\n"
                        "print(kernel.cache_info().currsize,"
                        " group_elements.cache_info().currsize,"
                        " _powers.cache_info().currsize,"
                        " _generic_data.cache_info().currsize)")
    assert done.stdout == "0 0 0 0\n", done.stderr


def test_import_writes_nothing():
    # perfbench's set-up probe reads this child's stdout as one float
    done = python("-c", "import heckeb.cli")
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


def test_closed_stdout_exits_quietly():
    # the rank-4 basis is far larger than a pipe buffer, so writing it
    # meets the closed pipe
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "heckeb.cli", "klbasis", "--n", "4", "--r", "1"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert first.startswith(b"C[1 2 3 4] = ")
    assert err == b""
    assert code == 141
