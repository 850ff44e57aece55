"""Alternating A/B runs of perfbench on two checkouts, kept in a BENCH file.

Runs ``perfbench/run.py`` unchanged from the root of each checkout, one run
at a time, alternating which side goes first in each pair.  Every run's
last stdout line is kept as parsed JSON (``null`` if it does not parse), and
the summary per workload and seed gives, for every end-to-end metric of
the change checkout's ``BENCHMARK.json``, the medians, the quartiles, how
many pairs the change won, the ratio of the medians and a verdict: ``gain``
when the change won at least 9 in 10 pairs and its median is better than
the parent's by more than the distance between the parent's quartiles,
``regression`` when its median is worse than the parent's by more than the
metric's bound (a share of the parent's median), ``unresolved`` otherwise.
Each run also records ``cpu_s``, the user plus system CPU of
``run.py`` and every child it waited for, and ``cpu_per_op_s``, that over
the operations the run attempted; the summary gives the same figures for
both, labelled as not a benchmark metric.  An existing output file is
extended: its runs are kept, the new ones appended, the summary recomputed
from all of them, and any other key it holds is left as it is.  It exits
1, naming the run on stderr, if any run, traced or not, exited non-zero or
has no last line that parses, or a last line that is not ``correct`` or has
empty ``metrics``.

    python3 tools/ab_pairs.py --parent ../parent --change . \\
        --workload conj-a-rank4 --seeds 0 5 --pairs 10 --out BENCH_16.json

Stdlib only; it imports nothing from the checkouts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# the CPU each run records beside its result, lower better
CPU_METRICS = ("cpu_s", "cpu_per_op_s")
NOT_BENCHMARK = "not a benchmark metric: CPU of run.py and its children"


def end_to_end(root: Path) -> dict[str, tuple[bool, float]]:
    """Metric -> (whether lower is better, bound) for every end-to-end
    metric in the BENCHMARK.json of a checkout."""
    doc = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"] == "lower", m["bound"])
            for m in doc["end_to_end"]}


def machine() -> dict:
    """CPU model, CPU count, memory and OS of this host."""
    out = {"cpu": platform.processor(), "cpus": os.cpu_count()}
    for path, key, field in (("/proc/cpuinfo", "model name", "cpu"),
                             ("/proc/meminfo", "MemTotal", "mem_total_kb")):
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(key):
                    value = line.split(":", 1)[1].strip()
                    out[field] = int(value.split()[0]) if field.endswith(
                        "_kb") else value
                    break
        except OSError:
            pass
    out.update(system=platform.system(), release=platform.release(),
               arch=platform.machine())
    return out


def run_once(root: Path, workload: str, seed: int, seconds: float,
             trace: int) -> tuple[int, dict | None]:
    """One perfbench run from the root of a checkout: (exit, last line)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        final = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        final = None
    return done.returncode, final if isinstance(final, dict) else None


def children_cpu() -> float:
    """User plus system CPU seconds of the children waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed_run(root: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """run_once, with the CPU it took and that per attempted operation."""
    before = children_cpu()
    code, final = run_once(root, workload, seed, seconds, trace)
    cpu = children_cpu() - before
    attempted = (final or {}).get("attempted")
    return {"exit": code, "final_line": final, "cpu_s": round(cpu, 4),
            "cpu_per_op_s": round(cpu / attempted, 6) if attempted else None}


def compare(values: dict[str, list[float]], lower: bool) -> dict:
    """Medians, quartiles, change wins and ratio of the medians of one
    metric over pairs, given its values per side in pair order."""
    wins = sum((c < p) if lower else (c > p)
               for p, c in zip(values["parent"], values["change"]))
    med = {side: statistics.median(v) for side, v in values.items()}
    out = {"pairs": len(values["parent"])}
    for side in SIDES:
        quart = (statistics.quantiles(values[side], n=4, method="inclusive")
                 if len(values[side]) > 1 else values[side] * 3)
        out[f"{side}_median"] = round(med[side], 4)
        out[f"{side}_quartiles"] = [round(quart[0], 4), round(quart[2], 4)]
    out["change_wins"] = wins
    out["ratio"] = (round(med["change"] / med["parent"], 3)
                    if med["parent"] else None)
    return out


def verdict(stats: dict, lower: bool, bound: float) -> str:
    """'gain', 'regression' or 'unresolved' for the summary of compare, as
    the module docstring says."""
    q1, q3 = stats["parent_quartiles"]
    better = stats["parent_median"] - stats["change_median"]
    if not lower:
        better = -better
    if 10 * stats["change_wins"] >= 9 * stats["pairs"] and better > q3 - q1:
        return "gain"
    if -better > bound * stats["parent_median"]:
        return "regression"
    return "unresolved"


def run_name(run: dict) -> str:
    """'cli-readme seed 0 pair 3 change', or '... traced parent'."""
    kind = "traced" if run["trace"] else f"pair {run['pair']}"
    return f"{run['workload']} seed {run['seed']} {kind} {run['side']}"


def run_problem(run: dict) -> str | None:
    """Why a run's result cannot be used, or None if it can."""
    final = run["final_line"]
    if run["exit"] != 0:
        return f"exit {run['exit']}"
    if final is None:
        return "no last line that parses as a result"
    if final.get("correct") is not True:
        return "last line is not correct"
    if not final.get("metrics"):
        return "last line has empty metrics"
    return None


def summarize(runs: list[dict],
              metrics: dict[str, tuple[bool, float]]) -> dict:
    """Per workload and seed: medians, quartiles, wins, ratio and verdict
    of every end-to-end metric, given as end_to_end returns them, over the
    untraced pairs whose two runs are both usable, and the problem of each
    run, traced or not, that is not; the group is all_correct when there is
    none."""
    groups: dict[str, list[dict]] = {}
    for run in runs:
        groups.setdefault(f"{run['workload']} seed {run['seed']}",
                          []).append(run)
    summary = {}
    for name, group in groups.items():
        problems = [f"{run_name(run)}: {why}" for run in group
                    if (why := run_problem(run)) is not None]
        pairs: dict[int, dict[str, dict]] = {}
        for run in group:
            if not run["trace"] and run_problem(run) is None:
                pairs.setdefault(run["pair"], {})[run["side"]] = run
        complete = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        entry: dict = {}
        for metric, (lower, bound) in metrics.items():
            both = [p for p in complete
                    if all(metric in p[side]["final_line"]["metrics"]
                           for side in SIDES)]
            if both:
                stats = entry[metric] = compare(
                    {side: [p[side]["final_line"]["metrics"][metric]["value"]
                            for p in both] for side in SIDES}, lower)
                stats["verdict"] = verdict(stats, lower, bound)
        for metric in CPU_METRICS:
            both = [p for p in complete
                    if all(p[side].get(metric) is not None for side in SIDES)]
            if both:
                entry[metric] = {"label": NOT_BENCHMARK, **compare(
                    {side: [p[side][metric] for p in both] for side in SIDES},
                    True)}
        entry["all_correct"] = not problems
        entry["problems"] = problems
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--traced", action="store_true",
                        help="also make one traced run per side and seed")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = end_to_end(roots["change"])
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("command", "python3 perfbench/run.py --workload W "
                   "--seed S --seconds T --trace 0 (traced runs: --trace 1)")
    doc.setdefault("procedure", "parent and change checked out side by "
                   "side, runs one at a time, alternating which side runs "
                   "first in each pair")
    doc["machine"] = machine()
    doc["python"] = platform.python_version()
    runs = doc.setdefault("runs", [])
    traced = doc.setdefault("traced_runs", [])
    for seed in args.seeds:
        start = 1 + max((r["pair"] for r in runs if r["workload"] ==
                         args.workload and r["seed"] == seed), default=-1)
        for pair in range(start, start + args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                done = timed_run(roots[side], args.workload, seed,
                                 args.seconds, 0)
                runs.append({"workload": args.workload, "seed": seed,
                             "pair": pair, "first": order[0], "side": side,
                             "trace": 0, **done})
                wall = (done["final_line"] or {}).get("metrics", {}).get(
                    "wall_s", {})
                print(f"{args.workload} seed {seed} pair {pair} {side}: "
                      f"exit {done['exit']} wall_s {wall.get('value')} "
                      f"cpu_s {done['cpu_s']}", flush=True)
        if args.traced:
            for side in SIDES:
                traced.append({"workload": args.workload, "seed": seed,
                               "side": side, "trace": 1,
                               **timed_run(roots[side], args.workload, seed,
                                           args.seconds, 1)})
        doc["summary"] = summarize(runs + traced, metrics)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    problems = [why for s in doc["summary"].values() for why in s["problems"]]
    for why in problems:
        print(f"ab_pairs: {why}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
