"""Write the outputs of the byte-identity gate commands under one directory.

Usage: python3 tools/byte_gate.py OUT_DIR [--root CHECKOUT] [--manifest FILE]

Runs 14 commands in-process through ``hadamard_ineq.cli.main``, each into
its own directory OUT_DIR/<workload>/<operation>:
- the ``readme`` and ``decay`` workloads and the seed-1 ``sweep`` workload
  of ``bench/workloads.py``, which is only read;
- two ``model`` exports, of the quasi-Euclidean and the power law.

Run it on two checkouts, the package of each taken from CHECKOUT/src
(default: the checkout holding this file), and compare the trees with
``diff -r``: a change that must leave every output byte-identical leaves
no difference, config hashes included.

With ``--manifest FILE`` it also writes FILE: a header of ``# key: value``
lines naming what the bytes depend on beyond the source (the numpy and scipy
versions, the LAPACK that ``hadamard_ineq._kernels`` bound, and the OpenBLAS
core where numpy's library reports one), then one ``sha256sum`` line per
file, the SHA-256 of its bytes and its path relative to OUT_DIR.
``tests/test_byte_gate.py`` compares a fresh manifest with the committed
``tests/data/byte_gate.sha256``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import os
import random
import sys
from pathlib import Path

EXTRA = {
    "model-quasi": "model --profile quasi --c1 2 --n 3 --rmax 60".split(),
    "model-power": "model --profile power --c0 1 --beta 1 --r0 1 --n 3 --rmax 2000".split(),
}


def environment(kernels) -> dict:
    """What the output bytes depend on besides the package source."""
    env = {name: importlib.metadata.version(name) for name in ("numpy", "scipy")}
    env["lapack"] = kernels._lapack
    from numpy.linalg import _umath_linalg

    try:
        corename = ctypes.CDLL(_umath_linalg.__file__).scipy_openblas_get_corename64_
    except AttributeError:  # numpy links a LAPACK that does not name its core
        env["openblas_core"] = "unknown"
    else:
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        env["openblas_core"] = corename().decode()
    return env


def write_manifest(path: Path, out_dir: Path, env: dict) -> None:
    """The environment header, then "SHA-256  relative path" per file, sorted."""
    lines = [f"# {key}: {value}" for key, value in env.items()]
    for file in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest = hashlib.sha256(file.read_bytes()).hexdigest()
        lines.append(f"{digest}  {file.relative_to(out_dir).as_posix()}")
    path.write_text("\n".join(lines) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir", type=Path)
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                    help="checkout whose src/ and bench/workloads.py are used")
    ap.add_argument("--manifest", type=Path,
                    help="also write the environment and the SHA-256 of every file here")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import hadamard_ineq._kernels as kernels
    import hadamard_ineq.cli as cli
    from workloads import decay_ops, readme_ops, sweep_ops

    commands = {}
    for workload, make_ops in (("readme", readme_ops), ("decay", decay_ops),
                               ("sweep", sweep_ops)):
        for op in make_ops(random.Random(1)):
            commands[f"{workload}/{op.name}"] = op.argv
    commands.update({f"extra/{name}": argv for name, argv in EXTRA.items()})

    failed = []
    for name, cmd in commands.items():
        os.environ["HADAMARD_INEQ_OUT"] = str(args.out_dir / name)
        if cli.main(cmd) != 0:
            failed.append(name)
    files = sum(1 for p in args.out_dir.rglob("*") if p.is_file())
    print(f"{len(commands)} commands, {files} files under {args.out_dir}", file=sys.stderr)
    for name in failed:
        print(f"error: {name} failed", file=sys.stderr)
    if args.manifest is not None:
        write_manifest(args.manifest, args.out_dir, environment(kernels))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
