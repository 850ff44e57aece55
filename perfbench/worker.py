"""One cold pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE SPANS_PATH

with ``src`` on PYTHONPATH.  The worker loads heckeb.cli (and with it every
heckeb module), runs the workload's operations one at a time, and prints one
JSON line: the seconds of each operation, the peak RSS after the last one,
and the digest of each operation's canonical output.  Digests are computed
after all operations have run and the peak RSS has been read, so checking
adds neither time nor memory to what is measured.  With TRACE = 1 it first
installs the tracer, reads the lru_cache counters after each operation,
writes the spans to SPANS_PATH and adds the trace summary; without it the
tracer is never imported.
"""

import json
import resource
import sys
import time
import traceback

import heckeb.cli  # noqa: F401  (loads every heckeb module, as the CLI does)

from workloads import digest, operations


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(exc)).strip()


def main(argv) -> int:
    workload, seed, trace, spans_path = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ops = operations(workload, seed)
    ran = []
    for op in ops:
        if tracer is not None and workload == "cli-readme":
            tracer.clear_caches()   # each CLI command starts cold
        error = value = None
        start = time.perf_counter()
        try:
            if tracer is None:
                value = op.call()
            else:
                with tracer.operation(op.label):
                    value = op.call()
        except Exception as exc:  # reported as a failed operation
            error = _error(exc)
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.read_caches()
        ran.append((op, value, seconds, error))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    results = []
    for op, value, seconds, error in ran:
        out = None
        if error is None:
            try:
                if not op.verdict(value):
                    error = "verdict is not ok"
                out = digest(op.canonical(value))
            except Exception as exc:  # reported as a failed operation
                error = _error(exc)
        results.append({"label": op.label, "seconds": seconds,
                        "digest": out, "error": error})
    report = {"peak_rss_mb": peak_rss_mb, "operations": results}
    if tracer is not None:
        report["trace"] = tracer.summary()
        tracer.write_spans(spans_path)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
