"""One ``eventposet`` CLI call that reports where its time went.

    PERFBENCH_CHILD_OUT=FILE [PERFBENCH_TRACE=1] python3 perfbench/cli_child.py ARGS...

Behaves like ``python -m eventposet ARGS...`` and then writes to FILE the
seconds spent importing ``eventposet.cli`` and running the command, plus,
with ``PERFBENCH_TRACE=1``, the tracer's totals for the command.
"""
import os
import sys
import time

start = time.perf_counter()
import eventposet.cli  # noqa: E402  (timed from here)

imported = time.perf_counter()
tracer = None
if os.environ.get("PERFBENCH_TRACE") == "1":
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
began = time.perf_counter()
code = eventposet.cli.main(sys.argv[1:])
sys.stdout.flush()
finished = time.perf_counter()

import json  # noqa: E402  (after the timed spans)

with open(os.environ["PERFBENCH_CHILD_OUT"], "w") as out:
    json.dump({
        "import_s": imported - start,
        "main_s": finished - began,
        "trace": tracer.summary() if tracer else None,
    }, out)
sys.exit(code)
