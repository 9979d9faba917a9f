"""Write the outputs of the byte-identity gate commands under one directory.

Usage: python3 tools/byte_gate.py OUT_DIR [--root CHECKOUT]

Runs 14 commands in-process through ``hadamard_ineq.cli.main``, each into
its own directory OUT_DIR/<workload>/<operation>:
- the ``readme`` and ``decay`` workloads and the seed-1 ``sweep`` workload
  of ``bench/workloads.py``, which is only read;
- two ``model`` exports, of the quasi-Euclidean and the power law.

Run it on two checkouts, the package of each taken from CHECKOUT/src
(default: the checkout holding this file), and compare the trees with
``diff -r``: a change that must leave every output byte-identical leaves
no difference, config hashes included.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from pathlib import Path

EXTRA = {
    "model-quasi": "model --profile quasi --c1 2 --n 3 --rmax 60".split(),
    "model-power": "model --profile power --c0 1 --beta 1 --r0 1 --n 3 --rmax 2000".split(),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir", type=Path)
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                    help="checkout whose src/ and bench/workloads.py are used")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
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
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
