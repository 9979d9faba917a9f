"""The byte-identity gate: the outputs of tools/byte_gate.py's 14 commands
hash to the committed manifest tests/data/byte_gate.sha256.

A change that must leave every output byte-identical leaves it as it is; a
change that moves outputs regenerates it with

    python3 tools/byte_gate.py OUT_DIR --manifest tests/data/byte_gate.sha256

and its diff is the list of moved files.  The hashes hold only for the
numpy, scipy, LAPACK and OpenBLAS core recorded in the manifest's header,
so a run elsewhere fails by naming the difference rather than listing
every file as moved.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "data" / "byte_gate.sha256"


def read_manifest(path):
    """({key: value} of the header, {relative path: SHA-256})."""
    env, hashes = {}, {}
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            env[key] = value
        else:
            digest, _, name = line.partition("  ")
            hashes[name] = digest
    return env, hashes


def test_outputs_match_the_committed_manifest(tmp_path):
    fresh = tmp_path / "byte_gate.sha256"
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "byte_gate.py"),
                           str(tmp_path / "out"), "--manifest", str(fresh)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    want_env, want = read_manifest(MANIFEST)
    got_env, got = read_manifest(fresh)
    assert got_env == want_env, (
        f"the manifest was recorded with {want_env}, this run has {got_env}; "
        "the hashes hold only for the recorded environment")
    moved = sorted(name for name in want.keys() & got.keys() if want[name] != got[name])
    missing = sorted(want.keys() - got.keys())
    new = sorted(got.keys() - want.keys())
    assert not (moved or missing or new), (
        f"moved: {moved}\nmissing: {missing}\nnew: {new}")
