"""tools/ab_pairs.py flags every run whose result cannot be used."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "ab_pairs", ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


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
    entry = ab_pairs.summarize(good_pairs(4))["cli-readme seed 0"]
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
    entry = ab_pairs.summarize(good_pairs(3) + [partner, bad])[
        "cli-readme seed 0"]
    assert entry["all_correct"] is False
    assert entry["problems"] == [f"{ab_pairs.run_name(bad)}: {why}"]
    # pair 9 has no usable change run; the other pairs still count
    assert entry["wall_s"]["pairs"] == 3


def test_main_exits_one_and_names_the_run(tmp_path, monkeypatch, capsys):
    # a traced run that exits 0 without a result line
    def run_once(root, workload, seed, seconds, trace):
        if trace and root.name == "change":
            return 0, None
        return 0, result(1.0 if root.name == "change" else 2.0)

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    code = ab_pairs.main(["--parent", str(tmp_path / "parent"),
                          "--change", str(tmp_path / "change"),
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
    entry = ab_pairs.summarize(runs)["cli-readme seed 0"]
    for metric, pairs in (("cpu_s", 4), ("cpu_per_op_s", 3)):
        assert entry[metric]["label"] == ab_pairs.NOT_BENCHMARK
        assert entry[metric]["pairs"] == pairs
        assert entry[metric]["change_wins"] == pairs
    assert entry["cpu_s"]["parent_median"] == 3.03
    assert "label" not in entry["wall_s"]


def test_older_runs_without_cpu_are_skipped():
    entry = ab_pairs.summarize(good_pairs(2))["cli-readme seed 0"]
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
    assert ab_pairs.main(["--parent", str(tmp_path / "parent"),
                          "--change", str(tmp_path / "change"),
                          "--workload", "cli-readme", "--pairs", "2",
                          "--traced", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for run in doc["runs"] + doc["traced_runs"]:
        assert run["cpu_s"] >= 0
        assert run["cpu_per_op_s"] == pytest.approx(run["cpu_s"], abs=1e-4)
    assert doc["summary"]["cli-readme seed 0"]["cpu_s"]["pairs"] == 2
