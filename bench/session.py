"""One benchmark pass, in a fresh interpreter as a CLI user's session is.

Usage (started by run.py): session.py ROOT T0 SPEC

T0 is the CLOCK_MONOTONIC reading taken just before this interpreter was
started; the time until ``import hadamard_ineq.cli`` returns is the pass's
set-up sample.  Each operation of SPEC is then run in-process through
``hadamard_ineq.cli.main`` with its own output directory, and the last line
printed is the pass record as JSON.
"""

import sys
import time

root, t0, spec_path = sys.argv[1], float(sys.argv[2]), sys.argv[3]
sys.path.insert(0, root + "/src")
import hadamard_ineq.cli as cli  # noqa: E402

setup_s = time.monotonic() - t0

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

with open(spec_path, encoding="utf-8") as f:
    spec = json.load(f)
tracer = None
if spec["trace"]:
    import spans
    tracer = spans.Tracer()
    spans.install(tracer)

codes = []
start = time.perf_counter()
for op in spec["ops"]:
    os.environ["HADAMARD_INEQ_OUT"] = op["out_dir"]
    if tracer:
        tracer.op = op["name"]
    try:
        codes.append(cli.main(op["argv"]))
    except Exception:  # an operation that raises is a failed operation
        traceback.print_exc()
        codes.append(-1)
session_s = time.perf_counter() - start

record = {"setup_s": setup_s, "session_s": session_s, "codes": codes,
          "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
if tracer:
    record["trace"] = tracer.record()
print(json.dumps(record))
