"""What a command loads: one ctypes binding of LAPACK, whose addresses come
from the library numpy already maps or else from the capsules of scipy's f2py
wrappers, the Bessel kernels loaded bare, and CPython's builtin SHA-256, each
with its fallbacks.

These tests run in a fresh interpreter: pytest itself imports scipy.integrate,
and with it scipy.special and scipy.linalg, for its warning filter.
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from hadamard_ineq import _kernels

SRC = str(Path(__file__).resolve().parent.parent / "src")
COMMANDS = [
    ["pme", "--profile", "euclidean", "--n", "3", "--rmax", "10", "--rdomain", "8",
     "--m", "2", "--t-end", "1", "--cells", "100"],
    ["poincare", "--profile", "hyperbolic", "--k", "1", "--n", "3", "--rmax", "20",
     "--rdomain", "20", "--grid", "512"],
    ["rayleigh", "--profile", "euclidean", "--n", "3", "--rmax", "60", "--rdomain", "50",
     "--p", "3", "--grid", "512"],
]
UNLOADED = ("scipy", "scipy.special", "scipy.linalg", "scipy._lib._array_api", "numpy.ma",
            "concurrent.futures", "hashlib", "_hashlib", "numpy.polynomial")
# numpy's wheels link scipy-openblas64, which exports LAPACK under these names
NUMPY_LAPACK = hasattr(ctypes.CDLL(_umath_linalg.__file__), "scipy_dgtsv_64_")

_LOADED_AFTER = """
import json, sys
unloaded = json.loads(sys.argv[2])
import hadamard_ineq.cli as cli
after_import = [m for m in unloaded if m in sys.modules]
codes = [cli.main(argv + ["--out-dir", f"{sys.argv[1]}/{i}"])
         for i, argv in enumerate(json.loads(sys.argv[3]))]
print(json.dumps({"codes": codes, "after_import": after_import,
                  "after_commands": [m for m in unloaded if m in sys.modules],
                  "bare": "scipy.special._special_ufuncs" in sys.modules}))
"""

_WITHOUT_LAPACK = """
import ctypes

class WithoutLapack(ctypes.CDLL):  # numpy linked against a LAPACK with other names
    def __getattr__(self, name):
        if name.startswith("scipy_"):
            raise AttributeError(name)
        return super().__getattr__(name)
"""

# with the argument "scipy", numpy's symbols are hidden before _kernels binds
_SAME_BITS = _WITHOUT_LAPACK + """
import json, sys
import numpy as np
if sys.argv[1:] == ["scipy"]:
    ctypes.CDLL = WithoutLapack
from hadamard_ineq import _kernels
numpy_lapack = "scipy.linalg._flapack" not in sys.modules
flapack = _kernels._load_bare("scipy.linalg._flapack")
rng = np.random.default_rng(25)
hexes = lambda *arrays: [np.asarray(a).tobytes().hex() for a in arrays]
out = {"numpy_lapack": numpy_lapack, "source": _kernels._lapack,
       "width": ctypes.sizeof(_kernels._int), "cases": []}
for n in (1, 2, 3, 200, 1000):
    m = max(n - 1, 1)  # f2py wants an off-diagonal entry even at n = 1
    dl, du, e = (rng.uniform(-1.0, 1.0, m) for _ in range(3))
    d, b = 2.5 + rng.random(n), rng.standard_normal(n)  # diagonally dominant
    singular = (dl.copy(), d.copy(), du.copy())
    singular[0][-1], singular[1][-1] = 0.0, 0.0  # the last row vanishes
    for name, (sl, sd, su) in (("dominant", (dl, d, du)), ("singular", singular)):
        ours = [a.copy() for a in (sl, sd, su, b)]
        info = _kernels.gtsv_solver(*ours)(n)
        *theirs, tinfo = flapack.dgtsv(sl, sd, su, b)
        out["cases"].append([f"dgtsv {name} n={n}", info, tinfo, hexes(*ours), hexes(*theirs)])
    indefinite = d.copy()
    indefinite[n // 2] = -1.0  # the first nonpositive pivot
    for name, pd in (("spd", d), ("indefinite", indefinite)):
        *ours, info = _kernels.dpttrf(pd, e)
        *theirs, tinfo = flapack.dpttrf(pd, e)
        out["cases"].append([f"dpttrf {name} n={n}", info, tinfo, hexes(*ours), hexes(*theirs)])
        if name == "spd":
            x = b.copy()
            info = _kernels.pttrs_solver(*ours, x)()
            y, tinfo = flapack.dpttrs(*theirs, b)
            out["cases"].append([f"dpttrs n={n}", info, tinfo, hexes(x), hexes(y)])
print(json.dumps(out))
"""

_FALLBACK = _WITHOUT_LAPACK + """
import importlib, importlib.util, json, sys
import numpy as np
from hadamard_ineq import _kernels, geometry, pme, variational, weighted

def numbers():
    x = np.geomspace(1e-3, 1e3, 61)
    power = geometry.build_model(geometry.PowerLaw(1.0, 1.0, 1.0), 3, 200.0)
    hyperbolic = weighted.build_weight(geometry.build_model(geometry.Hyperbolic(1.0), 3, 20.0))
    flat = geometry.build_model(geometry.Euclidean(), 3, 10.0)
    run = pme.pme_run(pme.PMEConfig(m=2.0, model=flat, R_domain=8.0,
                                    initial=pme.Characteristic(1.0), t_end=1.0, n_cells=100))
    ray = variational.rayleigh_minimize(hyperbolic, 3.0, 10.0, max_iter=50)
    ones, tri = np.ones(3), np.array([4.0, 5.0, 6.0])
    gtsv = [ones[:1].copy(), tri[:1].copy(), ones[:1].copy(), tri[:1] - 1.0]
    return {"ive": _kernels.ive(0.75, x).tobytes().hex(),
            "kve": _kernels.kve(0.75, x).tobytes().hex(),
            "logpsi": power.logpsi(np.linspace(0.0, 200.0, 41)).tobytes().hex(),
            "lambda1": variational.poincare_eigen(hyperbolic, 20.0).lambda1.hex(),
            "rayleigh": ray.minimizer.tobytes().hex(),
            "pme": run.states[-1].u.tobytes().hex(), "steps": run.steps,
            "n=1": [_kernels.gtsv_solver(*gtsv)(1), float(gtsv[3][0]).hex()],
            "indefinite": _kernels.dpttrf(np.array([1.0, -1.0, 1.0]), ones[:2])[2]}

def reload():
    for module in (_kernels, geometry, variational, pme):
        importlib.reload(module)

def loaded():
    return [m in sys.modules for m in ("scipy.linalg._flapack", "scipy.linalg",
                                       "scipy.special._special_ufuncs", "scipy.special")]

sources = {"numpy": (loaded(), numbers())}
ctypes.CDLL = WithoutLapack
reload()
sources["bare"] = (loaded(), numbers())

def refuse(*args, **kwargs):
    raise ImportError("bare loading refused")

importlib.util.spec_from_file_location = refuse
for name in ("scipy.special._special_ufuncs", "scipy.linalg._flapack"):
    del sys.modules[name]
reload()
public = (sys.modules["scipy.special"].ive is _kernels.ive
          and _kernels._lapack == "scipy.linalg.lapack")
sources["public"] = (loaded(), numbers())
first = sources["numpy"][1]
print(json.dumps({"loaded": {k: v[0] for k, v in sources.items()}, "public": public,
                  "same": {k: v[1] == first for k, v in sources.items()},
                  "n=1": first["n=1"], "indefinite": first["indefinite"]}))
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
    # where numpy's LAPACK has the routines, scipy's own LAPACK is never mapped
    unloaded = UNLOADED + (("scipy.linalg._flapack",) if NUMPY_LAPACK else ())
    doc = _run(_LOADED_AFTER, str(tmp_path), json.dumps(unloaded), json.dumps(COMMANDS))
    assert doc["codes"] == [0, 0, 0]
    assert doc["after_import"] == []
    assert doc["after_commands"] == []
    assert doc["bare"]


def _assert_the_bits_of_scipys_wrappers(cases):
    infos = {}
    for case, info, tinfo, ours, theirs in cases:
        assert (info, ours) == (tinfo, theirs), case
        infos[case] = info
    assert len(infos) == 25
    for n in (1, 2, 3, 200, 1000):
        assert infos[f"dgtsv dominant n={n}"] == infos[f"dpttrs n={n}"] == 0
        assert infos[f"dpttrf spd n={n}"] == 0
        assert infos[f"dgtsv singular n={n}"] == n
        assert infos[f"dpttrf indefinite n={n}"] == n // 2 + 1


def test_the_lapack_kernels_give_the_bits_of_scipys_wrappers():
    doc = _run(_SAME_BITS)
    assert doc["numpy_lapack"] == NUMPY_LAPACK
    _assert_the_bits_of_scipys_wrappers(doc["cases"])


def test_the_capsule_addresses_give_the_bits_of_scipys_wrappers():
    # numpy's symbols hidden: the same binding calls the routines whose addresses
    # scipy's wrappers hold.  Their integers are 32-bit, which no value below can
    # show: ctypes keeps a scalar in a zero-filled buffer wider than 64 bits, so
    # on a little-endian machine either width reads the same nonnegative values
    doc = _run(_SAME_BITS, "scipy")
    assert doc["source"] == "scipy.linalg._flapack"
    assert doc["width"] == 4
    _assert_the_bits_of_scipys_wrappers(doc["cases"])


def test_the_public_imports_give_the_same_bits_when_bare_loading_fails():
    # numpy's LAPACK symbols are refused first, then every bare load
    doc = _run(_FALLBACK)
    # [scipy.linalg._flapack, scipy.linalg, _special_ufuncs, scipy.special] loaded
    numpy_source = [not NUMPY_LAPACK, False, True, False]
    assert doc["loaded"] == {"numpy": numpy_source, "bare": [True, False, True, False],
                             "public": [True, True, True, True]}
    assert doc["public"]
    assert doc["same"] == {"numpy": True, "bare": True, "public": True}
    assert doc["n=1"] == [0, (3.0 / 4.0).hex()]
    assert doc["indefinite"] == 2


def test_the_bound_solvers_refuse_what_lapack_could_overrun():
    d, off, b = np.full(4, 4.0), np.ones(3), np.ones(4)
    solve = _kernels.gtsv_solver(off, d, off.copy(), b)
    for k in (0, 5):
        with pytest.raises(ValueError, match=rf"system size {k} outside \[1, 4\]"):
            solve(k)
    assert solve(4) == 0
    refused = [(off[:2], d, off, b),                  # an off-diagonal too short
               (off, d, off, b[:3]),                  # a right-hand side too short
               (off, np.ones(8)[::2], off, b),        # not contiguous
               (off, d.astype(np.float32), off, b)]   # not float64
    for dl, dd, du, rhs in refused:
        with pytest.raises(ValueError, match="LAPACK needs"):
            _kernels.gtsv_solver(dl, dd, du, rhs)
    frozen = b.copy()
    frozen.flags.writeable = False
    with pytest.raises(ValueError, match="LAPACK needs"):
        _kernels.pttrs_solver(d, off, frozen)


def test_the_hashlib_fallback_gives_the_same_config_hashes():
    payloads = [{}, {"label": "ψ ∈ (0, ∞)", "n": 3}, {"seeds": list(range(500))}]
    doc = _run(_HASH_FALLBACK, json.dumps(payloads))
    want = [hashlib.sha256(json.dumps(p, sort_keys=True).encode()).hexdigest()[:16]
            for p in payloads]
    assert doc == {"bare": True, "fallback": True, "builtin": want, "hashlib": want}
