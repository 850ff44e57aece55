"""Theorem 4.1 case by case on two checkouts, kept under by_hand in a BENCH file.

For every case of ``theorem41_check`` at rank n -- e in {2, 3}, d < e and
r = 0..n-1, twenty cases at n = 4 -- it runs one fresh child per side, one
at a time, alternating which side goes first from case to case.  Each run
records the report's status, the SHA-256 of the sorted decomposition
numbers [lam, mu, d] (of ``null`` if ``decomposition_numbers`` raises),
the child's wall time and its peak RSS (``ru_maxrss`` from ``os.wait4``).
The runs and their summary are appended as one entry to the list
``by_hand`` of the output file; every other key it holds is left as it is.
It exits 1, naming the case on stderr, if a child fails or the two sides
differ in status or numbers.

    python3 tools/theorem41_cases.py --parent ../parent --change . \\
        --n 4 --out BENCH_35.json

Stdlib only; each child imports heckeb from the src/ of its checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
# the child hashes nothing: hashlib's import alone adds about 3.5 MB to
# the peak RSS it reports
CHILD = """\
import json, sys
from heckeb import specht
from heckeb.combinat import format_bipartition
from heckeb.errors import HeckebError
n, e, d, r = map(int, sys.argv[1:])
report = specht.theorem41_check(n, e, d, r, n)
try:
    _, _, entries = specht.decomposition_numbers(n, e, d, r, n)
    numbers = sorted([format_bipartition(a), format_bipartition(b), v]
                     for (a, b), v in entries.items())
except HeckebError:
    numbers = None
print(json.dumps({"status": report["status"], "numbers": numbers},
                 ensure_ascii=False))
"""


def cases(n: int) -> list[tuple[int, int, int]]:
    """(e, d, r) for e in {2, 3}, d < e and r = 0..n-1."""
    return [(e, d, r) for e in (2, 3) for d in range(e) for r in range(n)]


def run_case(root: Path, n: int, e: int, d: int, r: int) -> dict:
    """One case in a fresh child importing the checkout at root."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD, *map(str, (n, e, d, r))], cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    with proc.stdout:
        lines = proc.stdout.read().strip().splitlines()
    _, wait_status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    try:
        result = json.loads(lines[-1])
        status = result["status"]
        text = json.dumps(result["numbers"], ensure_ascii=False).encode()
    except (IndexError, json.JSONDecodeError, TypeError, KeyError):
        status = None
    if proc.returncode != 0 or status is None:
        status, digest = "error", None
    else:
        digest = hashlib.sha256(text).hexdigest()
    return {"exit": proc.returncode, "status": status, "sha256": digest,
            "wall_s": round(wall, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}


def summarize(runs: list[dict]) -> dict:
    """Whether every case agrees, its statuses, and per side the median
    and range of the wall time and the peak RSS."""
    out = {"cases": len(runs), "all_same": all(run["same"] for run in runs),
           "statuses": sorted({run[side]["status"]
                               for run in runs for side in SIDES})}
    for side in SIDES:
        for metric in ("wall_s", "peak_rss_mb"):
            values = [run[side][metric] for run in runs]
            if values:
                out[f"{side}_{metric}_median"] = statistics.median(values)
                out[f"{side}_{metric}_range"] = [min(values), max(values)]
    out["change_faster_cases"] = sum(
        run["change"]["wall_s"] < run["parent"]["wall_s"] for run in runs)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for k, (e, d, r) in enumerate(cases(args.n)):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        run: dict = {"e": e, "d": d, "r": r, "first": order[0]}
        for side in order:
            run[side] = run_case(roots[side], args.n, e, d, r)
        parent, change = run["parent"], run["change"]
        run["same"] = (parent["exit"] == change["exit"] == 0
                       and parent["status"] == change["status"]
                       and parent["sha256"] == change["sha256"])
        runs.append(run)
        print(f"e = {e}, d = {d}, r = {r}: " + ", ".join(
            f"{side} {run[side]['status']} {run[side]['wall_s']} s "
            f"{run[side]['peak_rss_mb']} MB" for side in SIDES), flush=True)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("by_hand", []).append({
        "what": f"theorem41_check({args.n}, e, d, r, bound={args.n}) for "
                "e in {2, 3}, d < e, r = 0..n-1, one fresh child per case "
                "and side, alternating which side runs first; wall_s and "
                "peak RSS (ru_maxrss from os.wait4) of the child; sha256 "
                "over the sorted decomposition numbers [lam, mu, d]",
        "python": platform.python_version(),
        "summary": summarize(runs), "runs": runs})
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    problems = [f"e = {run['e']}, d = {run['d']}, r = {run['r']}: "
                + ", ".join(f"{side} exit {run[side]['exit']} status "
                            f"{run[side]['status']} sha256 "
                            f"{run[side]['sha256']}" for side in SIDES)
                for run in runs if not run["same"]]
    for why in problems:
        print(f"theorem41_cases: {why}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
