"""Every public function and method of heckeb runs when its commands run,
or NOT_RUN names it with the reason it stays.

The guard runs every subcommand through cli.run, once with each format it
renders, and the README's commands, under sys.setprofile: a definition
counts as reached only if its code runs.  Matching names instead let a
local variable or an attribute of the same name hide a dead definition
(crystal.phi, Specialization.q0 and DecompositionMatrix.at_one escaped
that way).  The commands run in a fresh interpreter, so that no cache a
test filled skips a body.  An oracle that only the tests run belongs in
tests/ (oracles.py, or the one test module that uses it).
"""

import ast
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

from heckeb.cli import _COMMANDS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heckeb"

_PERFBENCH = "a perfbench metric reads it"
_ALGEBRA = "HeckeElement arithmetic stays for perfbench's metrics " \
           "until ROADMAP item 22 moves it to the tests"
_VALUE_API = "value API that the tests use"
NOT_RUN = {
    "crystal.flotw_oracle": "the closed-form FLOTW test stays beside the "
                            "crystal walk it checks: the Fock-side claims "
                            "at larger sizes are to be run through it",
    "cli.main": "the entry point, which only a subprocess test runs",
    "domino.reduced_word": _PERFBENCH,
    "fock.f_action": "a perfbench metric reads it (ROADMAP item 12), and "
                     "the tests' [e_i, f_j] oracle calls it",
    "hecke.bar": _ALGEBRA,
    "hecke.HeckeElement.coeff": _ALGEBRA,
    "hecke.HeckeElement.is_zero": _ALGEBRA,
    "hecke.HeckeElement.mul_gen": _ALGEBRA,
    "hecke.HeckeElement.scale": _ALGEBRA,
    "hecke.HeckeElement.t_basis": _ALGEBRA,
    "hecke.HeckeElement.unit": _ALGEBRA,
    "domino.SignedPermutation.identity": _VALUE_API,
    "domino.SignedPermutation.inverse": _VALUE_API,
    "fock.FockVector.is_zero": _VALUE_API,
    "laurent.Laurent.bar": _VALUE_API,
}

# The arguments of one run of each subcommand, at n <= 3.
SAMPLES = {
    "bip": ["--n", "3"],
    "quotient": ["--bipartition", "(2;1)", "--r", "1"],
    "order": ["--n", "3", "--r", "1"],
    "insert": ["--w", "-1 3 2", "--r", "1"],
    "klbasis": ["--n", "3", "--r", "1"],
    "cells": ["--n", "3", "--xi", "3/2", "--side", "L"],
    "check-conj-a": ["--n", "3", "--r", "0"],
    "check-cellular": ["--n", "3", "--r", "0"],
    "crystal": ["--charge", "0,1", "--e", "3", "--n", "3"],
    "uglov": ["--charge", "0,1", "--e", "3", "--n", "3"],
    "canbasis": ["--charge", "0,1", "--e", "3", "--n", "3"],
    "decmat": ["--charge", "0,1", "--e", "3", "--n", "3"],
    "charge": ["--r", "inf", "--d", "1", "--e", "3", "--n", "3"],
    "gamma": ["--mu", "(1;2)", "--charge1", "0,1", "--charge2", "1,0",
              "--e", "3"],
    "theorem41": ["--n", "3", "--e", "3", "--d", "1", "--r", "0"],
    "specht": ["--n", "3", "--e", "3", "--d", "1", "--r", "0"],
}

# Run in a fresh interpreter with a JSON list of argvs on stdin; prints
# the exit codes and the dotted names of the heckeb code that ran.
_TRACE = """\
import contextlib, io, json, sys
from pathlib import Path
from heckeb import cli
package = str(Path(cli.__file__).parent)
ran = set()
def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package):
        ran.add(f"{Path(code.co_filename).stem}.{code.co_qualname}")
codes = []
sys.setprofile(profile)
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.run(argv))
sys.setprofile(None)
print(json.dumps([codes, sorted(ran)]))
"""


def _public(body):
    return [node.name for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


def definitions():
    """Dotted names of heckeb's public module-level functions and of the
    public methods of its public classes."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text("utf-8"))
        out.update(f"{module}.{name}" for name in _public(tree.body))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                out.update(f"{module}.{node.name}.{name}"
                           for name in _public(node.body))
    return out


def command_argvs():
    """Each subcommand's sample with each format it renders, then the
    README's commands."""
    argvs = []
    for name, (_, _, _, formats, _) in _COMMANDS.items():
        for fmt in [None] if formats is None else ["text", "json", *formats]:
            argvs.append([name, *SAMPLES[name],
                          *(["--format", fmt] if fmt else [])])
    references = json.loads(
        (ROOT / "perfbench" / "references.json").read_text("utf-8"))
    return argvs + [shlex.split(label)[1:] for label in references
                    if label.startswith("heckeb ")]


def trace(argvs):
    """The exit code of each argv, and the dotted names of what ran."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", _TRACE],
                          input=json.dumps(argvs), env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    codes, names = json.loads(done.stdout)
    return codes, set(names)


def test_every_public_name_is_reached():
    argvs = command_argvs()
    codes, names = trace(argvs)
    assert [a for a, code in zip(argvs, codes) if code != 0] == []
    not_run = definitions() - names
    assert sorted(not_run - NOT_RUN.keys()) == [], \
        "no command runs it: move each into tests/ or delete it"
    assert sorted(NOT_RUN.keys() - not_run) == [], \
        "defined nowhere or run now: drop it from NOT_RUN"
