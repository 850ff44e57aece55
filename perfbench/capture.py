"""Write references.json: the digest of every operation's output.

    python3 perfbench/capture.py

Run from the root of a heckeb checkout whose outputs are trusted.  It runs
every operation of every workload once, untraced, with conj-a-rank4 once per
r the seed can choose.  The README commands run under four PYTHONHASHSEED
values and must print the same bytes under each; capture refuses to write
anything if they do not, or if any operation fails.
"""

import json
import sys
import time
from pathlib import Path

from run import DEADLINE_S, HERE, STATE_DIR, Child, cli_pass, worker_pass
from workloads import CONJ_A_RANKS

HASH_SEEDS = (0, 1, 2, 12345)


def main() -> int:
    root = Path.cwd()
    (root / STATE_DIR).mkdir(exist_ok=True)
    spans = root / STATE_DIR / "capture-spans.json.gz"
    passes = [cli_pass(Child(root, seed, time.monotonic() + DEADLINE_S), 0)
              for seed in HASH_SEEDS]
    for workload in ("fock-rank11", "theorem41-rank3"):
        passes.append(worker_pass(
            Child(root, 0, time.monotonic() + DEADLINE_S),
            workload, 0, False, spans))
    for seed in range(len(CONJ_A_RANKS)):
        passes.append(worker_pass(
            Child(root, seed, time.monotonic() + DEADLINE_S),
            "conj-a-rank4", seed, False, spans))
    references = {}
    for p in passes:
        for op in p["operations"]:
            if op.get("error") or not op.get("digest"):
                print(f"capture: {op['label']}: {op.get('error')}",
                      file=sys.stderr)
                return 1
            if references.setdefault(op["label"], op["digest"]) != op["digest"]:
                print(f"capture: {op['label']}: output depends on "
                      "PYTHONHASHSEED", file=sys.stderr)
                return 1
    (HERE / "references.json").write_text(
        json.dumps(references, indent=1, sort_keys=True) + "\n", "utf-8")
    print(f"capture: {len(references)} references written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
