"""Benchmark of the hadamard-ineq command line, run from the repository root.

    python3 bench/run.py --workload readme|sweep|decay --seed N --seconds S --trace 0|1

A run starts whole passes of its workload for as long as the next one is
expected to end within S seconds, then prints one JSON object as its last
line.
Each pass is a fresh interpreter (session.py) that imports
``hadamard_ineq.cli`` and calls ``main`` for every command of the
workload; outputs are checked after the pass ends.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` every pass is run
twice, untraced and traced, and the metrics are the per-layer ones.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_SETUP_SAMPLES = 6
RUN_LIMIT_S = 170.0

TIMED_LAYERS = ("geometry.build_model", "weighted.build_weight", "weighted.supremum_B",
                "weighted.scaling_regression", "weighted.near_extremal",
                "variational.rayleigh_minimize", "variational.poincare_eigen",
                "variational.nonradial_certificate", "pme.pme_run", "pme.fit_smoothing")
COMMANDS = ("model", "sweep", "poincare", "rayleigh", "certificate", "pme")
WRITERS = ("report_io.write_csv", "report_io.write_json", "report_io.write_gnuplot")


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, ops, trace: bool, deadline: float) -> dict:
    """Run one fresh-interpreter pass over ``ops``; returns its record."""
    pass_dir = OUT / workload
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    spec = {"trace": trace,
            "ops": [{"name": op.name, "argv": op.argv, "out_dir": str(pass_dir / op.name)}
                    for op in ops]}
    spec_path = pass_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    t0 = time.monotonic()
    cmd = ([sys.executable] + (["-X", "importtime"] if trace else [])
           + [str(HERE / "session.py"), str(ROOT), repr(t0), str(spec_path)])
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE if trace else None, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        if trace:
            sys.stderr.write(proc.stderr)
        raise PassFailed(f"pass interpreter exited with code {proc.returncode}")
    rec = json.loads(lines[-1])
    if trace:
        rec["imports"] = import_self_times(proc.stderr)

    rec["attempted"] = len(ops)
    rec["failed"] = 0
    rec["problems"] = []
    for op, code in zip(ops, rec["codes"]):
        if code != 0:
            rec["failed"] += 1
            print(f"{workload}.{op.name}: exit code {code}: {' '.join(op.argv)}",
                  file=sys.stderr)
            continue
        for problem in op.check(pass_dir / op.name):
            rec["problems"].append(f"{workload}.{op.name}: {problem}")
    return rec


def import_self_times(stderr: str) -> dict:
    """Self seconds per top-level package from ``python -X importtime`` lines."""
    totals = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            if line.strip():
                print(line, file=sys.stderr)
            continue
        if "[us]" in line:  # column header
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        totals[top] = totals.get(top, 0.0) + int(self_us) / 1e6
    return totals


def layer_metrics(rec: dict) -> dict:
    trace = rec["trace"]
    fns, counts = trace["functions"], trace["counts"]

    def self_s(*names):
        return sum(fns[n]["self_s"] for n in names if n in fns)

    def calls(name):
        return fns[name]["calls"] if name in fns else 0

    m = {"import.scipy.s": rec["imports"].get("scipy", 0.0),
         "import.hadamard_ineq.s": rec["imports"].get("hadamard_ineq", 0.0)}
    for cmd in COMMANDS:
        m[f"cli.{cmd}.s"] = self_s(f"cli.cmd_{cmd}")
    for name in TIMED_LAYERS:
        m[f"{name}.s"] = self_s(name)
    n_sup = calls("weighted.supremum_B")
    m.update({
        "geometry.build_model.calls": calls("geometry.build_model"),
        "geometry.build_model.ode_calls": counts.get("build_model.ode_calls", 0),
        "weighted.supremum_B.calls": n_sup,
        "weighted.supremum_B.evaluations": counts.get("supremum_B.evaluations", 0),
        "weighted.supremum_B.distinct_ratio":
            counts.get("supremum_B.distinct", 0) / n_sup if n_sup else 0.0,
        "variational.rayleigh_minimize.iterations":
            counts.get("rayleigh_minimize.iterations", 0),
        "pme.pme_run.steps": counts.get("pme_run.steps", 0),
        "report_io.write.s": self_s(*WRITERS),
        "report_io.write.bytes": counts.get("write.bytes", 0),
        "report_io.write.files": counts.get("write.files", 0),
    })
    return m


def unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def print_trace_detail(rec: dict):
    """Per-function and per-operation breakdown of one traced pass."""
    fns = rec["trace"]["functions"]
    for name in sorted(fns, key=lambda n: -fns[n]["self_s"]):
        print(f"  self {fns[name]['self_s']:9.4f} s  calls {fns[name]['calls']:6d}  {name}")
    for op, per_fn in rec["trace"]["op_calls"].items():
        calls = {f"{n}.calls": c for n, c in per_fn.items() if not n.startswith("cli.")}
        calls.update(rec["trace"]["op_counts"].get(op, {}))
        print(f"  op {op}: " + " ".join(f"{n}={c}" for n, c in sorted(calls.items())))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "hadamard_ineq" / "cli.py").is_file():
        print(f"error: no hadamard_ineq sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile first, so no pass's import time includes compiling
    compileall.compile_dir(SRC, quiet=1)

    rng = random.Random(args.seed)
    make_ops = WORKLOADS[args.workload]
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes, traced, setups = [], [], []
    longest = 0.0  # wall time of the longest round (pass, and its traced twin) so far
    try:
        while not passes or time.monotonic() - start + longest <= args.seconds:
            t0 = time.monotonic()
            ops = make_ops(rng)
            passes.append(run_pass(args.workload, ops, False, deadline))
            setups.append(passes[-1]["setup_s"])
            if args.trace:
                traced.append(run_pass(args.workload, ops, True, deadline))
            longest = max(longest, time.monotonic() - t0)
        while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
            setups.append(run_pass(args.workload, [], False, deadline)["setup_s"])
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = passes + traced
    problems = [p for rec in records for p in rec["problems"]]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    sessions = [p["session_s"] for p in passes]
    print(f"{args.workload}: {len(passes)} passes, session_s "
          + " ".join(f"{s:.3f}" for s in sessions)
          + "; setup_s " + " ".join(f"{s:.3f}" for s in setups), file=sys.stderr)

    if args.trace:
        print_trace_detail(traced[-1])
        per_pass = [layer_metrics(rec) for rec in traced]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["trace.overhead_s"] = (statistics.median(r["session_s"] for r in traced)
                                      - statistics.median(sessions))
    else:
        # the slowest sample of a run, not the median: see "Host speed" in README.md
        values = {"setup_s": max(setups),
                  "session_s": max(sessions),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}
    result = {"correct": not problems,
              "attempted": sum(r["attempted"] for r in records),
              "failed": sum(r["failed"] for r in records),
              "metrics": {name: {"value": v, "unit": unit(name)} for name, v in values.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
