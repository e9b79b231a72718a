"""A fabric worker process for the fabric-stream workload.

    python3 e2e_bench/worker.py --connect HOST:PORT [worker options]

Runs ``python -m repro.verify worker`` in this process.  When
``E2E_BENCH_SPANS`` names a file, the per-layer spans are installed
first and written to that file when the worker exits (the coordinator's
``shutdown`` or SIGTERM both end it cleanly).
"""

import os
import sys

if __name__ == "__main__":
    spans_path = os.environ.get("E2E_BENCH_SPANS")
    if spans_path:
        import tracer

        tracer.install()
    from repro.verify.__main__ import main

    code = main(["worker", *sys.argv[1:]])
    if spans_path:
        tracer.dump(spans_path)
    sys.exit(code)
