"""tools/bench_pairs.py against stub checkouts whose bench/run.py prints a
result line, or fails on a chosen seed."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# a bench/run.py that passes everything but --seed FAIL_SEED
_STUB = """
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if seed == {fail_seed}:
    sys.exit(3)
print("w: 2 passes, session_s 1.0 3.0; setup_s 0.1", file=sys.stderr)
print(json.dumps({{"metrics": {{"session_s": {{"value": {value} + seed}}}},
                  "failed": 0, "attempted": 2, "correct": True}}))
"""


def _checkout(path, value, fail_seed=0):
    (path / "bench").mkdir(parents=True)
    (path / "bench" / "run.py").write_text(_STUB.format(value=value, fail_seed=fail_seed))
    return path


def _pairs(tmp_path, fail_seed):
    parent = _checkout(tmp_path / "parent", 2.0)
    change = _checkout(tmp_path / "change", 1.0, fail_seed)
    out = tmp_path / "pairs.json"
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_pairs.py"),
                           str(parent), str(change), "--workload", "w", "--pairs", "3",
                           "--seconds", "1", "--out", str(out)],
                          capture_output=True, text=True, timeout=120)
    return proc, json.loads(out.read_text()) if out.exists() else None


def test_a_failed_run_keeps_the_completed_runs(tmp_path):
    # pair 2 runs the change first, so only pair 1's two runs complete
    proc, doc = _pairs(tmp_path, fail_seed=2)
    assert proc.returncode == 1
    assert doc is not None
    assert [(r["seed"], r["side"]) for r in doc["runs"]] == [(1, "parent"), (1, "change")]
    assert "--seed 2" in doc["failed_run"] and "exited with 3" in doc["failed_run"]
    assert str((tmp_path / "change").resolve()) in doc["failed_run"]
    assert "summary_over_untraced_runs" not in doc


def test_complete_pairs_are_summarised(tmp_path):
    proc, doc = _pairs(tmp_path, fail_seed=0)
    assert proc.returncode == 0, proc.stderr
    assert len(doc["runs"]) == 6 and "failed_run" not in doc
    summary = doc["summary_over_untraced_runs"]
    assert summary["w.session_s.change_lower_in_pairs"] == "3 of 3"
    assert summary["w.change"]["session_s"]["median"] == pytest.approx(3.0)
    assert summary["w.parent"]["pass_session_s_median"]["median"] == pytest.approx(2.0)
    assert summary["w.change"]["failed_of_attempted"] == "0 of 6"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(parent, change):
    """Synthetic pairs: one session_s per run, which is also its one pass."""
    return [{"side": side, "workload": "w", "seed": i + 1, "pass_session_s": [value],
             "result": {"metrics": {"session_s": {"value": value}},
                        "failed": 0, "attempted": 1, "correct": True}}
            for i, pair in enumerate(zip(parent, change))
            for side, value in zip(("parent", "change"), pair)]


PARENT = [1.0 + 0.01 * i for i in range(10)]  # interquartile distance 0.055


@pytest.mark.parametrize("change, lower, shown", [
    ([p - 0.2 for p in PARENT], 10, True),
    ([p - 0.2 for p in PARENT[:8]] + [p + 0.01 for p in PARENT[8:]], 8, False),
    ([p - 0.01 for p in PARENT], 10, False),
    ([p - 0.2 for p in PARENT[:9]] + PARENT[9:], 9, True),  # a tie counts for neither
], ids=["all-beyond-iqr", "8-of-10", "all-within-iqr", "9-and-a-tie"])
def test_gain_shown_follows_the_pairs_and_the_parents_spread(change, lower, shown):
    summary = _tool().summarise(_runs(PARENT, change), ["w"])
    for name in ("session_s", "pass_session_s_median"):
        assert summary[f"w.{name}.change_lower_in_pairs"] == f"{lower} of 10"
        assert summary[f"w.{name}.gain_shown"] is shown
