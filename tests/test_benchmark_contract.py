"""The result line of a traced benchmark run carries every per-layer metric.

perfbench/run.py ends every run with one JSON object.  A renamed or removed
target, or a cached function that loses its lru_cache, does not make the
run fail: it only drops a metric from that line.  So each workload of
BENCHMARK.json is run once, traced, and its last line must be a strict JSON
result that is correct and names every per-layer metric.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_reports_every_per_layer_metric(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert lines, done.stderr
    result = json.loads(lines[-1], parse_constant=reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    missing = [m["name"] for m in BENCHMARK["per_layer"]
               if m["name"] not in result["metrics"]]
    assert missing == []
