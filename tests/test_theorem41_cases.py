"""tools/theorem41_cases.py runs every case in a child and keeps what it
measured under by_hand."""

import hashlib
import importlib.util
import json
from pathlib import Path

from heckeb import specht
from heckeb.combinat import format_bipartition

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "theorem41_cases", ROOT / "tools" / "theorem41_cases.py")
theorem41_cases = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(theorem41_cases)


def numbers_digest(n, e, d, r):
    _, _, entries = specht.decomposition_numbers(n, e, d, r)
    numbers = sorted([format_bipartition(a), format_bipartition(b), v]
                     for (a, b), v in entries.items())
    text = json.dumps(numbers, ensure_ascii=False).encode()
    return hashlib.sha256(text).hexdigest()


def test_rank2_on_one_checkout(tmp_path):
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"runs": [1], "by_hand": [{"kept": True}]}))
    assert theorem41_cases.main(["--parent", str(ROOT), "--change", str(ROOT),
                                 "--n", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["runs"] == [1] and doc["by_hand"][0] == {"kept": True}
    entry = doc["by_hand"][1]
    assert entry["summary"]["cases"] == 10
    assert entry["summary"]["all_same"] is True
    assert entry["summary"]["statuses"] == ["ok"]
    assert [(run["e"], run["d"], run["r"]) for run in entry["runs"]] == \
        theorem41_cases.cases(2)
    assert [run["first"] for run in entry["runs"][:2]] == ["parent", "change"]
    for run in entry["runs"]:
        want = numbers_digest(2, run["e"], run["d"], run["r"])
        for side in theorem41_cases.SIDES:
            got = run[side]
            assert got["exit"] == 0 and got["status"] == "ok"
            assert got["sha256"] == want
            assert got["wall_s"] > 0 and got["peak_rss_mb"] > 0


def test_failed_child_is_named(tmp_path, capsys):
    # a parent checkout with no heckeb: every parent child fails
    out = tmp_path / "BENCH.json"
    assert theorem41_cases.main(["--parent", str(tmp_path),
                                 "--change", str(ROOT), "--n", "1",
                                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 5
    assert err[0].startswith("theorem41_cases: e = 2, d = 0, r = 0: "
                             "parent exit 1 status error sha256 None, "
                             "change exit 0 status ok sha256 ")
    summary = json.loads(out.read_text())["by_hand"][0]["summary"]
    assert summary["all_same"] is False
    assert summary["statuses"] == ["error", "ok"]
