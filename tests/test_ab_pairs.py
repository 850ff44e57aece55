"""tools/ab_pairs.py flags every run whose result cannot be used, and gives
each end-to-end metric a verdict."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "ab_pairs", ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)
METRICS = ab_pairs.end_to_end(ROOT)


def result(wall, correct=True):
    metrics = {} if wall is None else {"wall_s": {"value": wall, "unit": "s"}}
    return {"correct": correct, "attempted": 1, "failed": 0,
            "metrics": metrics}


def run(pair, side, final, code=0, trace=0):
    out = {"workload": "cli-readme", "seed": 0, "side": side, "trace": trace,
           "exit": code, "final_line": final}
    if not trace:
        out["pair"] = pair
    return out


def good_pairs(count):
    return [run(k, side, result(wall))
            for k in range(count)
            for side, wall in (("parent", 2.0 + k / 100),
                               ("change", 1.5 + k / 100))]


def test_good_runs():
    entry = ab_pairs.summarize(good_pairs(4), METRICS)["cli-readme seed 0"]
    assert entry["all_correct"] is True and entry["problems"] == []
    assert entry["wall_s"]["pairs"] == 4
    assert entry["wall_s"]["change_wins"] == 4


@pytest.mark.parametrize("bad, why", [
    (run(9, "change", result(1.0), code=1), "exit 1"),
    (run(9, "change", None), "no last line that parses as a result"),
    (run(9, "change", result(1.0, correct=False)), "last line is not correct"),
    (run(9, "change", result(None)), "last line has empty metrics"),
    (run(None, "change", None, trace=1),
     "no last line that parses as a result"),
    (run(None, "parent", result(None), trace=1),
     "last line has empty metrics"),
], ids=["exit", "unparsed", "not-correct", "empty-metrics",
        "traced-no-result", "traced-empty-metrics"])
def test_malformed_run_is_named(bad, why):
    partner = run(9, "parent", result(2.0))
    entry = ab_pairs.summarize(good_pairs(3) + [partner, bad], METRICS)[
        "cli-readme seed 0"]
    assert entry["all_correct"] is False
    assert entry["problems"] == [f"{ab_pairs.run_name(bad)}: {why}"]
    # pair 9 has no usable change run; the other pairs still count
    assert entry["wall_s"]["pairs"] == 3


def checkouts(tmp_path):
    """--parent and --change arguments for two checkouts under tmp_path, the
    change holding this repository's BENCHMARK.json."""
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    return ["--parent", str(tmp_path / "parent"), "--change", str(change)]


def test_main_exits_one_and_names_the_run(tmp_path, monkeypatch, capsys):
    # a traced run that exits 0 without a result line
    def run_once(root, workload, seed, seconds, trace):
        if trace and root.name == "change":
            return 0, None
        return 0, result(1.0 if root.name == "change" else 2.0)

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    code = ab_pairs.main([*checkouts(tmp_path),
                          "--workload", "cli-readme", "--pairs", "2",
                          "--traced", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == ("ab_pairs: cli-readme seed 0 traced change: no last line "
                   "that parses as a result\n")
    doc = json.loads(out.read_text())
    assert doc["summary"]["cli-readme seed 0"]["wall_s"]["pairs"] == 2


def test_last_line_must_be_an_object(tmp_path):
    # a last line that parses as JSON but is no result object, as a bare
    # number printed after the result would be
    script = tmp_path / "perfbench" / "run.py"
    script.parent.mkdir()
    script.write_text('print(\'{"correct": true}\')\nprint(1.5)\n')
    assert ab_pairs.run_once(tmp_path, "cli-readme", 0, 1, 0) == (0, None)


def test_cpu_metrics_are_summarized():
    # cpu_s and cpu_per_op_s get medians and wins beside the end-to-end
    # metrics, labelled as not a benchmark metric; a pair whose run has no
    # figure (no attempted operations) is left out of it
    runs = good_pairs(4)
    for k, r in enumerate(runs):
        r["cpu_s"] = (3.0 if r["side"] == "parent" else 2.0) + k / 100
        r["cpu_per_op_s"] = r["cpu_s"] / 2
    runs[-1]["cpu_per_op_s"] = None
    entry = ab_pairs.summarize(runs, METRICS)["cli-readme seed 0"]
    for metric, pairs in (("cpu_s", 4), ("cpu_per_op_s", 3)):
        assert entry[metric]["label"] == ab_pairs.NOT_BENCHMARK
        assert entry[metric]["pairs"] == pairs
        assert entry[metric]["change_wins"] == pairs
    assert entry["cpu_s"]["parent_median"] == 3.03
    assert "label" not in entry["wall_s"]


def test_older_runs_without_cpu_are_skipped():
    entry = ab_pairs.summarize(good_pairs(2), METRICS)["cli-readme seed 0"]
    assert "cpu_s" not in entry and "cpu_per_op_s" not in entry


def test_cpu_counts_the_children_of_run_py(tmp_path):
    # run.py burns no CPU itself; the child it waits for burns about 0.3 s
    script = tmp_path / "perfbench" / "run.py"
    script.parent.mkdir()
    script.write_text(
        "import json, subprocess, sys\n"
        "subprocess.run([sys.executable, '-c', 'import time\\n"
        "t = time.process_time()\\n"
        "while time.process_time() - t < 0.3: pass'])\n"
        "print(json.dumps({'correct': True, 'attempted': 3, 'failed': 0,"
        " 'metrics': {}}))\n")
    done = ab_pairs.timed_run(tmp_path, "cli-readme", 0, 1, 0)
    assert done["exit"] == 0 and done["final_line"]["attempted"] == 3
    assert 0.3 <= done["cpu_s"] < 5
    assert done["cpu_per_op_s"] == pytest.approx(done["cpu_s"] / 3,
                                                 abs=1e-4)


def test_main_records_cpu_per_run(tmp_path, monkeypatch):
    monkeypatch.setattr(ab_pairs, "run_once",
                        lambda root, *args: (0, result(1.0)))
    out = tmp_path / "BENCH.json"
    assert ab_pairs.main([*checkouts(tmp_path),
                          "--workload", "cli-readme", "--pairs", "2",
                          "--traced", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for run in doc["runs"] + doc["traced_runs"]:
        assert run["cpu_s"] >= 0
        assert run["cpu_per_op_s"] == pytest.approx(run["cpu_s"], abs=1e-4)
    assert doc["summary"]["cli-readme seed 0"]["cpu_s"]["pairs"] == 2


def walls(parent, change):
    """Pairs of runs with the given wall_s values per side, in pair order."""
    return [run(k, side, result(wall)) for k, pair in enumerate(
        zip(parent, change)) for side, wall in zip(ab_pairs.SIDES, pair)]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


@pytest.mark.parametrize("change, expected", [
    ([x - 0.10 for x in PARENT], "gain"),
    # 9 wins in 10 pairs, far beyond the parent's quartile distance
    ([x - 0.10 for x in PARENT[:9]] + [1.50], "gain"),
    # 8 wins in 10
    ([x - 0.10 for x in PARENT[:8]] + [1.50, 1.50], "unresolved"),
    # every pair won, by less than the parent's quartile distance
    ([x - 0.01 for x in PARENT], "unresolved"),
    # worse by 10%, inside the 24% bound of wall_s
    ([x * 1.10 for x in PARENT], "unresolved"),
    # worse by 30%
    ([x * 1.30 for x in PARENT], "regression"),
], ids=["all-wins", "nine-wins", "eight-wins", "within-spread",
        "within-bound", "beyond-bound"])
def test_verdict(change, expected):
    entry = ab_pairs.summarize(walls(PARENT, change), METRICS)[
        "cli-readme seed 0"]
    assert entry["wall_s"]["verdict"] == expected


def test_verdict_follows_the_direction_and_bound():
    # higher is better, bound 10%: a median 20% lower is a regression, one
    # 5% lower is not, and one higher on every pair is a gain
    stats = {"pairs": 10, "change_wins": 0, "parent_median": 100.0,
             "parent_quartiles": [99.0, 101.0], "change_median": 80.0}
    assert ab_pairs.verdict(stats, False, 0.1) == "regression"
    assert ab_pairs.verdict({**stats, "change_median": 95.0}, False,
                            0.1) == "unresolved"
    assert ab_pairs.verdict({**stats, "change_median": 110.0,
                             "change_wins": 10}, False, 0.1) == "gain"


def test_cpu_metrics_get_no_verdict():
    runs = good_pairs(4)
    for r in runs:
        r["cpu_s"] = 1.0
    entry = ab_pairs.summarize(runs, METRICS)["cli-readme seed 0"]
    assert entry["wall_s"]["verdict"] == "gain"
    assert "verdict" not in entry["cpu_s"]
