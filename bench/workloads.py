"""The benchmark's workloads: the CLI commands of one pass and their checks.

A pass runs every operation of its workload in order; an operation is one
``hadamard-ineq`` command plus the check of what it wrote.  Only the
``sweep`` workload draws inputs from the seed: its exponent lists, one
stratum per exponent so every draw covers its whole window.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks as C

JOBS = ["--jobs", "1"]


@dataclass(frozen=True)
class Op:
    name: str
    argv: list
    check: Callable[[Path], list]


def _fmt(values) -> str:
    return ",".join(f"{v:.6f}" for v in values)


def _stratified(rng: random.Random, lo: float, hi: float, count: int, log=False):
    """One uniform draw in each of ``count`` equal strata of [lo, hi]."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    width = (b - a) / count
    draws = [a + (i + rng.random()) * width for i in range(count)]
    return [math.exp(x) for x in draws] if log else draws


# -- readme: the six README commands verbatim, in README order ---------------

def readme_ops(rng: random.Random) -> list:
    quasi_exponent = C.pme_decay_exponent(C.effective_dimension(3, 2.0), 2.0)
    return [
        Op("model", "model --profile hyperbolic --k 1 --n 3 --rmax 20".split(),
           lambda d: C.check_hyperbolic_model(C.read_csv(d / "model.csv"),
                                              C.read_json(d / "model.json"), k=1.0)),
        Op("sweep", ("sweep --profile power --c0 1 --beta 1 --r0 1 --n 3 "
                     "--rmax 20000 --grid-kind log --grid 6144 "
                     "--p 2.02:2.2:10 --regress p_to_2").split(),
           lambda d: C.check_power_sweep(C.read_json(d / "sweep.json"),
                                         C.read_csv(d / "sweep.csv"),
                                         beta=1.0, rmax=20000.0)),
        Op("poincare", ("poincare --profile hyperbolic --k 1 --n 3 --rmax 20 "
                        "--rdomain 20").split(),
           lambda d: C.check_hyperbolic_poincare(C.read_json(d / "poincare.json"),
                                                 k=1.0, R=20.0)),
        Op("rayleigh", ("rayleigh --profile euclidean --n 3 --rmax 60 --rdomain 50 "
                        "--p 6").split(),
           lambda d: C.check_flat_rayleigh(C.read_json(d / "rayleigh.json"), N=3)),
        Op("certificate", ("certificate --profile power --c0 1 --beta 1 --r0 1 --n 3 "
                           "--rmax 2000 --p 2 --r 50,100,200,400").split(),
           lambda d: C.check_certificate(C.read_json(d / "certificate.json"),
                                         N=3, beta=1.0)),
        Op("pme", ("pme --profile quasi --c1 2 --r0 1 --n 3 --rmax 60 "
                   "--rdomain 50 --m 2 --r-support 2 --t-end 500 --cells 800").split(),
           lambda d: C.check_pme(C.read_csv(d / "timeseries.csv"),
                                 C.read_json(d / "pme_fit.json"),
                                 exponent=quasi_exponent,
                                 exponent_tol=0.1 * abs(quasi_exponent))),
    ]


# -- sweep: peaked supremum searches on four geometries ----------------------

def sweep_ops(rng: random.Random) -> list:
    power_p = _stratified(rng, 2.02, 2.2, 10)
    quasi_p = _stratified(rng, 2.1, 3.3, 4) + _stratified(rng, 3.4, 6.0, 4)
    quasi2_p = _stratified(rng, 10.0, 200.0, 8, log=True)
    hyp_p = [2.0] + _stratified(rng, 2.0, 6.0, 5)
    return [
        Op("power", ("sweep --profile power --c0 1 --beta 1 --r0 1 --n 3 --rmax 20000 "
                     "--grid-kind log --grid 6144 --regress p_to_2").split()
           + ["--p", _fmt(power_p)] + JOBS,
           lambda d: C.check_power_sweep(C.read_json(d / "sweep.json"),
                                         C.read_csv(d / "sweep.csv"),
                                         beta=1.0, rmax=20000.0)),
        Op("quasi3", "sweep --profile quasi --c1 2 --r0 1 --n 3 --rmax 1200".split()
           + ["--p", _fmt(quasi_p)] + JOBS,
           lambda d: C.check_quasi_threshold_sweep(C.read_json(d / "sweep.json"),
                                                   N=3, c1=2.0)),
        Op("quasi2", ("sweep --profile quasi --c1 2 --r0 1 --n 2 --rmax 50 "
                      "--grid-kind log --grid 4096 --grid-start 1e-30 "
                      "--regress p_large").split()
           + ["--p", _fmt(quasi2_p)] + JOBS,
           lambda d: C.check_sqrt_p_sweep(C.read_json(d / "sweep.json"))),
        Op("hyperbolic", "sweep --profile hyperbolic --k 1 --n 3 --rmax 20".split()
           + ["--p", _fmt(hyp_p)] + JOBS,
           lambda d: C.check_hyperbolic_sweep(C.read_json(d / "sweep.json"),
                                              N=3, k=1.0)),
    ]


# -- decay: long explicit porous-medium runs ---------------------------------

def decay_ops(rng: random.Random) -> list:
    return [
        Op("criterion9", ("pme --profile power --c0 1 --beta 1 --r0 1 --n 3 --rmax 130 "
                          "--rdomain 100 --m 2 --r-support 2 --height 4 --t-end 1e10 "
                          "--cells 1000 --outputs 90 --fit-window 1e8:1e10").split() + JOBS,
           lambda d: C.check_pme(C.read_csv(d / "timeseries.csv"),
                                 C.read_json(d / "pme_fit.json"),
                                 log_beats_power=True)),
        Op("flat", ("pme --profile euclidean --n 3 --rmax 30 --rdomain 24 --m 2 "
                    "--t-end 200 --cells 600 --fit-window 2:200").split() + JOBS,
           lambda d: C.check_pme(C.read_csv(d / "timeseries.csv"),
                                 C.read_json(d / "pme_fit.json"),
                                 exponent=C.pme_decay_exponent(3, 2.0), exponent_tol=0.03,
                                 mass0=4 * math.pi / 3)),
    ]


WORKLOADS = {"readme": readme_ops, "sweep": sweep_ops, "decay": decay_ops}
