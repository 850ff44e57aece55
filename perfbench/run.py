"""heckeb benchmark: cold, closed-loop runs of fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a heckeb checkout.  One client runs one operation at a
time in one process, and each pass of a workload starts a fresh interpreter
(one child process at a time), as a user's check does.  Every operation's
output is compared with the digest in ``references.json``.

With ``--trace 0`` the run makes cold passes until ``--seconds`` have
passed (at least one) and reports the end-to-end metrics ``wall_s``,
``setup_s`` and ``peak_rss_mb``, each the median over the run.  With
``--trace 1`` it makes one traced pass and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from metrics import PER_LAYER, STAGES
from workloads import (WORKLOADS, cli_commands, cli_label, cli_output,
                       digest, operation_count)

HERE = Path(__file__).resolve().parent
STATE_DIR = ".perfbench"        # under the checkout root, ignored by git
DEADLINE_S = 170                # every run ends well inside 180 s
SETUP_PROBES = 16


class Child:
    """Runs one child process at a time and stops it at the run's deadline."""

    def __init__(self, root: Path, seed: int, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.update({
            "PYTHONPATH": str(root / "src"),
            "PYTHONHASHSEED": str(seed % 2**32),
            "PYTHONIOENCODING": "utf-8",
            "PYTHONPYCACHEPREFIX": str(root / STATE_DIR / "pycache"),
        })
        self.stderr_path = root / STATE_DIR / "child-stderr.txt"

    def run(self, argv):
        """(exit code, stdout bytes, peak RSS in MB, seconds from launch to
        exit, launch time); exit code None if it was stopped at the
        deadline."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return None, b"", 0.0, 0.0, time.monotonic()
        with open(self.stderr_path, "wb") as err:
            launched = time.monotonic()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=self.root)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                proc.stdout.close()
            ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above
        code = None if ended >= self.deadline else proc.returncode
        return code, out, usage.ru_maxrss / 1024, ended - launched, launched

    def stderr_tail(self) -> str:
        text = self.stderr_path.read_text(encoding="utf-8", errors="replace")
        return text.strip().splitlines()[-1] if text.strip() else ""


def setup_probe(child: Child) -> float | None:
    """Seconds from launching an interpreter until heckeb.cli is loaded."""
    code, out, _, _, launched = child.run([
        sys.executable, "-c",
        "import heckeb.cli, time; print(repr(time.monotonic()))"])
    return float(out.decode()) - launched if code == 0 else None


def cli_pass(child: Child, seed: int) -> dict:
    """The README commands, each a fresh `python -m heckeb.cli` child."""
    ops, total, peak = [], 0.0, 0.0
    for argv in cli_commands(seed):
        code, out, rss, seconds, _ = child.run(
            [sys.executable, "-m", "heckeb.cli", *argv])
        total += seconds
        peak = max(peak, rss)
        error = None if code == 0 else (
            "stopped at the deadline" if code is None
            else f"exit {code}: {child.stderr_tail()}")
        ops.append({"label": cli_label(argv), "seconds": seconds,
                    "digest": None if code is None
                    else digest(cli_output(code, out)),
                    "error": error})
    return {"wall_s": total, "peak_rss_mb": peak, "operations": ops}


def worker_pass(child: Child, workload: str, seed: int, trace: bool,
                spans_path: Path) -> dict:
    """One cold pass in a worker interpreter; see worker.py."""
    code, out, _, _, _ = child.run([
        sys.executable, str(HERE / "worker.py"), workload, str(seed),
        "1" if trace else "0", str(spans_path)])
    if code == 0:
        try:
            report = json.loads(out.decode("utf-8").strip().splitlines()[-1])
        except (ValueError, IndexError):
            code = "with no result"
        else:
            report["wall_s"] = sum(op["seconds"]
                                   for op in report["operations"])
            return report
    why = ("stopped at the deadline" if code is None
           else f"worker exit {code}: {child.stderr_tail()}")
    return {"wall_s": None, "peak_rss_mb": None,
            "operations": [{"label": workload, "error": why}
                           for _ in range(operation_count(workload))]}


def check(passes: list[dict], references: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every operation of every pass."""
    attempted = failed = 0
    problems = []
    for p in passes:
        for op in p["operations"]:
            attempted += 1
            why = op.get("error")
            if why is None and op.get("digest") != references.get(op["label"]):
                why = ("no reference" if op["label"] not in references
                       else "output differs from the reference")
            if why is not None:
                failed += 1
                problems.append(f"{op['label']}: {why}")
    return attempted, failed, problems


def layer_metrics(trace: dict, names) -> tuple[dict, list[str]]:
    """Values for the named per-layer metrics; names whose function or cache
    does not exist in this version of heckeb go in the absent list."""
    functions, caches = trace["functions"], trace["caches"]
    values, absent = {}, []
    for name, unit in names:
        fn, _, what = name.rpartition(".")
        value = None
        if what in ("hits", "misses", "hit_ratio"):
            info = caches.get(fn)
            if info is not None:
                lookups = info["hits"] + info["misses"]
                value = (info[what] if what != "hit_ratio"
                         else info["hits"] / lookups if lookups else 0.0)
        elif name == "hecke.HeckeElement.mul_gen.calls":
            found = [functions[f"hecke.HeckeElement.{m}"]["calls"]
                     for m in ("mul_gen", "mul_gen_left", "mul_gen_right")
                     if f"hecke.HeckeElement.{m}" in functions]
            value = sum(found) if found else None
        elif name == "hecke.kl_basis.terms":
            if "hecke.kl_basis" in functions:
                value = trace["kl_basis_terms"]
        elif fn in functions:
            value = functions[fn].get(what)
        if value is None:
            absent.append(name)
        else:
            values[name] = {"value": value, "unit": unit}
    return values, absent


def median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "heckeb" / "cli.py").is_file():
        print(f"perfbench: no heckeb sources under {root / 'src'}; run from "
              "the root of a heckeb checkout", file=sys.stderr)
        return 2
    references = json.loads((HERE / "references.json").read_text("utf-8"))
    (root / STATE_DIR).mkdir(exist_ok=True)
    child = Child(root, args.seed, time.monotonic() + DEADLINE_S)
    print(f"perfbench: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, python {sys.version.split()[0]}, "
          f"{os.cpu_count()} cpus")

    # Compile heckeb's bytecode once, untimed, so every timed start loads
    # compiled modules as an installed package does.
    child.run([sys.executable, "-c", "import heckeb.cli"])

    spans_path = root / STATE_DIR / f"spans-{args.workload}-{args.seed}.json.gz"
    walls_path = root / STATE_DIR / "wall_s.json"
    walls = (json.loads(walls_path.read_text("utf-8"))
             if walls_path.is_file() else {})
    passes = []
    if args.trace:
        passes.append(worker_pass(child, args.workload, args.seed, True,
                                  spans_path))
    else:
        # Half the set-up probes run before the passes and half after, so
        # their median spans the run rather than one moment of it.
        setup = [setup_probe(child) for _ in range(SETUP_PROBES // 2)]
        start = time.monotonic()
        while not passes or time.monotonic() - start < args.seconds:
            if args.workload == "cli-readme":
                passes.append(cli_pass(child, args.seed))
            else:
                passes.append(worker_pass(child, args.workload, args.seed,
                                          False, spans_path))
            if passes[-1].get("wall_s") is None:
                break
        setup += [setup_probe(child) for _ in range(SETUP_PROBES // 2)]

    attempted, failed, problems = check(passes, references)
    for line in problems:
        print(f"FAILED {line}")
    print(f"error_rate = {failed / attempted:.6g} "
          f"({failed} of {attempted} operations failed)")
    wall = median_or_none(p["wall_s"] for p in passes)

    if args.trace:
        trace = passes[0].get("trace")
        metrics, absent = ({}, [n for n, _ in PER_LAYER]) if trace is None \
            else layer_metrics(trace, PER_LAYER)
        if trace is not None:
            stages, stage_absent = layer_metrics(trace, STAGES)
            for name, m in {**metrics, **stages}.items():
                print(f"{name} = {m['value']:.6g} {m['unit']}")
            absent += stage_absent + trace["absent"]
            untraced = walls.get(args.workload)
            print("trace_overhead = " + (
                f"{wall / untraced:.4g} (traced wall_s {wall:.4g} s over "
                f"untraced {untraced:.4g} s)" if untraced and wall
                else "absent (no untraced run of this workload in this "
                     "checkout yet)"))
            print(f"spans: {trace['spans']} written to {spans_path}")
        if absent:
            print("absent: " + ", ".join(absent))
    else:
        metrics = {}
        values = {"wall_s": (wall, "s"),
                  "setup_s": (median_or_none(setup), "s"),
                  "peak_rss_mb": (median_or_none(p["peak_rss_mb"]
                                                 for p in passes), "MB")}
        for name, (value, unit) in values.items():
            if value is not None:
                metrics[name] = {"value": value, "unit": unit}
                print(f"{name} = {value:.6g} {unit}")
        print(f"passes = {len(passes)}, setup probes = {len(setup)}")
        if wall is not None and failed == 0:
            walls[args.workload] = wall
            walls_path.write_text(json.dumps(walls, indent=1), "utf-8")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
