import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # in a scratch directory, so that no demo can leave a file in the checkout
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
