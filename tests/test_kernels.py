"""What a command loads: the five compiled scipy kernels, loaded bare, and
CPython's builtin SHA-256, each with the public import as fallback.

These tests run in a fresh interpreter: pytest itself imports scipy.integrate,
and with it scipy.special and scipy.linalg, for its warning filter.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
SMALL_PME = ["pme", "--profile", "euclidean", "--n", "3", "--rmax", "10", "--rdomain", "8",
             "--m", "2", "--t-end", "1", "--cells", "100"]
UNLOADED = ("scipy", "scipy.special", "scipy.linalg", "scipy._lib._array_api", "numpy.ma",
            "concurrent.futures", "hashlib", "_hashlib", "numpy.polynomial")

_LOADED_AFTER = """
import json, sys
unloaded = json.loads(sys.argv[2])
import hadamard_ineq.cli as cli
after_import = [m for m in unloaded if m in sys.modules]
code = cli.main(json.loads(sys.argv[3]) + ["--out-dir", sys.argv[1]])
print(json.dumps({"code": code, "after_import": after_import,
                  "after_pme": [m for m in unloaded if m in sys.modules],
                  "bare": [m in sys.modules for m in ("scipy.special._special_ufuncs",
                                                      "scipy.linalg._flapack")]}))
"""

_FALLBACK = """
import importlib, importlib.util, json, sys
import numpy as np
from hadamard_ineq import _kernels, geometry, pme, variational, weighted

def numbers():
    x = np.geomspace(1e-3, 1e3, 61)
    power = geometry.build_model(geometry.PowerLaw(1.0, 1.0, 1.0), 3, 200.0)
    hyperbolic = geometry.build_model(geometry.Hyperbolic(1.0), 3, 20.0)
    flat = geometry.build_model(geometry.Euclidean(), 3, 10.0)
    run = pme.pme_run(pme.PMEConfig(m=2.0, model=flat, R_domain=8.0,
                                    initial=pme.Characteristic(1.0), t_end=1.0, n_cells=100))
    return {"ive": _kernels.ive(0.75, x).tobytes().hex(),
            "kve": _kernels.kve(0.75, x).tobytes().hex(),
            "logpsi": power.logpsi(np.linspace(0.0, 200.0, 41)).tobytes().hex(),
            "lambda1": variational.poincare_eigen(weighted.build_weight(hyperbolic),
                                                  20.0).lambda1.hex(),
            "pme": run.states[-1].u.tobytes().hex(), "steps": run.steps}

bare = numbers()
bare_loaded = "scipy.special" not in sys.modules

def refuse(*args, **kwargs):
    raise ImportError("bare loading refused")

importlib.util.spec_from_file_location = refuse
for name in ("scipy.special._special_ufuncs", "scipy.linalg._flapack"):
    del sys.modules[name]
for module in (_kernels, geometry, variational, pme):
    importlib.reload(module)
public = sys.modules["scipy.special"].ive is _kernels.ive
print(json.dumps({"bare_loaded": bare_loaded, "public": public, "same": numbers() == bare}))
"""

_HASH_FALLBACK = """
import importlib, json, sys
from hadamard_ineq import report_io
payloads = json.loads(sys.argv[1])
builtin = [report_io.config_hash(p) for p in payloads]
bare = "hashlib" not in sys.modules
for name in ("_sha2", "_sha256"):
    sys.modules[name] = None  # refuses the import
importlib.reload(report_io)
import hashlib
print(json.dumps({"bare": bare, "fallback": report_io._sha256 is hashlib.sha256,
                  "builtin": builtin, "hashlib": [report_io.config_hash(p) for p in payloads]}))
"""


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_command_line_loads_only_the_compiled_kernels(tmp_path):
    doc = _run(_LOADED_AFTER, str(tmp_path), json.dumps(UNLOADED), json.dumps(SMALL_PME))
    assert doc["code"] == 0
    assert doc["after_import"] == []
    assert doc["after_pme"] == []
    assert doc["bare"] == [True, True]


def test_the_public_imports_give_the_same_bits_when_bare_loading_fails():
    doc = _run(_FALLBACK)
    assert doc == {"bare_loaded": True, "public": True, "same": True}


def test_the_hashlib_fallback_gives_the_same_config_hashes():
    payloads = [{}, {"label": "ψ ∈ (0, ∞)", "n": 3}, {"seeds": list(range(500))}]
    doc = _run(_HASH_FALLBACK, json.dumps(payloads))
    want = [hashlib.sha256(json.dumps(p, sort_keys=True).encode()).hexdigest()[:16]
            for p in payloads]
    assert doc == {"bare": True, "fallback": True, "builtin": want, "hashlib": want}
