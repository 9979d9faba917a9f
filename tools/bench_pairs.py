"""Run the benchmark alternately from two checkouts and summarise the pairs.

Usage: python3 tools/bench_pairs.py PARENT CHANGE --workload W [--workload W2]
           --pairs K --seconds S --out FILE

Pair i (1-based) runs ``bench/run.py --workload W --seed i --seconds S
--trace 0`` once from each checkout, the parent first on odd pairs and the
change first on even ones, so that a drift in host speed favours neither
side.  Each run starts from its own checkout, whose ``bench/`` and ``src/``
it uses; this tool only reads ``bench/``.  FILE receives every run's result
line and a summary per workload and side: the median, quartiles, minimum and
maximum of each end-to-end metric and of each run's median pass
``session_s`` (from the per-pass list that bench/run.py prints to stderr),
how many pairs the change read lower and whether that shows a gain (see
``gain_shown``), and how many operations failed of those attempted.  If a
run fails, FILE keeps the runs completed before it and the failed command,
without a summary, and the exit status is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def describe(checkout: Path) -> str:
    """The checkout's commit, and whether its tree differs from it."""
    git = ["git", "-C", str(checkout)]
    head = subprocess.run(git + ["rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode != 0:
        return f"{checkout.name} (not a git checkout)"
    dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True).stdout.strip()
    return head.stdout.strip() + (" with uncommitted changes" if dirty else "")


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """The run's result line, and the session_s of each of its passes."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited with {proc.returncode}")
    return json.loads(lines[-1]), pass_sessions(proc.stderr, workload)


def pass_sessions(stderr: str, workload: str) -> list:
    """The per-pass session_s of bench/run.py's summary line on stderr,
    "W: K passes, session_s s1 s2 ...; setup_s ..."."""
    for line in stderr.splitlines():
        head, _, rest = line.partition(" passes, session_s ")
        if rest and head.startswith(f"{workload}: "):
            return [float(s) for s in rest.partition(";")[0].split()]
    return []


def quartiles(values: list) -> tuple:
    return statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3


def spread(values: list) -> dict:
    q1, _, q3 = quartiles(values)
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "min": round(min(values), 4), "max": round(max(values), 4),
            "runs": len(values)}


def gain_shown(parent: list, change: list) -> bool:
    """Whether the change reads lower in at least 9 of 10 pairs, a tie
    counting for neither side, and its median lies below the parent's by more
    than the parent's interquartile distance: the rule a claimed gain is
    judged by."""
    lower = sum(c < p for p, c in zip(parent, change))
    q1, _, q3 = quartiles(parent)
    return (lower >= 0.9 * len(parent)
            and statistics.median(parent) - statistics.median(change) > q3 - q1)


def summarise(runs: list, workloads: list) -> dict:
    out = {}
    for workload in workloads:
        by_side = {side: [r["result"] for r in runs
                          if r["workload"] == workload and r["side"] == side]
                   for side in ("parent", "change")}
        metrics = list(by_side["parent"][0]["metrics"])
        medians = {side: [statistics.median(r["pass_session_s"]) for r in runs
                          if r["workload"] == workload and r["side"] == side]
                   for side in ("parent", "change")}
        for side, results in by_side.items():
            entry = {name: spread([r["metrics"][name]["value"] for r in results])
                     for name in metrics}
            entry["pass_session_s_median"] = spread(medians[side])
            entry["failed_of_attempted"] = (f"{sum(r['failed'] for r in results)} of "
                                            f"{sum(r['attempted'] for r in results)}")
            entry["all_checks_correct"] = all(r["correct"] for r in results)
            out[f"{workload}.{side}"] = entry
        pairs = {name: [[r["metrics"][name]["value"] for r in by_side[side]]
                        for side in ("parent", "change")] for name in metrics}
        pairs["pass_session_s_median"] = [medians["parent"], medians["change"]]
        for name, (parent, change) in pairs.items():
            lower = sum(c < p for p, c in zip(parent, change))
            out[f"{workload}.{name}.change_lower_in_pairs"] = f"{lower} of {len(parent)}"
            out[f"{workload}.{name}.gain_shown"] = gain_shown(parent, change)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True,
                    help="workload of bench/run.py; may repeat")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in sides.items():
        if not (checkout / "bench" / "run.py").is_file():
            print(f"error: no bench/run.py under the {side} checkout {checkout}",
                  file=sys.stderr)
            return 2

    import numpy
    import scipy
    doc = {
        "what": f"bench/run.py result lines, {describe(sides['parent'])} (parent) against "
                f"{describe(sides['change'])} (change)",
        "command": f"python3 bench/run.py --workload {'|'.join(args.workload)} --seed N "
                   f"--seconds {args.seconds:g} --trace 0",
        "host": f"{platform.machine()}, {len(os.sched_getaffinity(0))} CPUs "
                f"available; Python {platform.python_version()}, numpy {numpy.__version__}, "
                f"scipy {scipy.__version__}",
        "order": "parent and change alternate, the parent first on odd pairs; seed N is "
                 "the pair number; each side runs from its own checkout",
        "sides": {side: describe(checkout) for side, checkout in sides.items()},
    }
    runs = []
    try:
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for workload in args.workload:
                for side in order:
                    result, sessions = run_once(sides[side], workload, pair, args.seconds)
                    runs.append({"side": side, "workload": workload, "seed": pair,
                                 "result": result, "pass_session_s": sessions})
                    values = " ".join(f"{k} {v['value']:.4g}"
                                      for k, v in result["metrics"].items())
                    print(f"pair {pair} {workload} {side}: {values}", file=sys.stderr)
    except RuntimeError as exc:  # keep the runs made so far, unsummarised
        print(f"error: {exc}", file=sys.stderr)
        doc["failed_run"] = str(exc)
    else:
        doc["summary_over_untraced_runs"] = summarise(runs, args.workload)
    doc["runs"] = runs
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 1 if "failed_run" in doc else 0


if __name__ == "__main__":
    sys.exit(main())
