#!/usr/bin/env python3
"""Spectral gap and direct Rayleigh-quotient minimization.

The eigensolve and the supremum criterion are independent routes to the
same constant; on a flat geometry the p = 6 minimizer reproduces the
classical radial Sobolev quotient.
"""

import math

from hadamard_ineq import geometry as geo
from hadamard_ineq import variational as var
from hadamard_ineq import weighted as wgt


def main():
    mh = geo.build_model(geo.Hyperbolic(1.0), 3, 20.0)
    wh = wgt.build_weight(mh)
    print("constant curvature -1, N=3 (gap should approach 1, constant 1):")
    for R in (5.0, 10.0, 20.0):
        res = var.poincare_eigen(wh, R)
        print(f"   domain radius {R:5.1f}: gap={res.lambda1:.5f} "
              f"constant={res.best_constant:.5f}")
    sup_b, poin, gap = wgt.mckean_bounds(3, 1.0)
    print(f"   closed-form targets: constant={poin}, gap={gap}")

    mf = geo.build_model(geo.Euclidean(), 3, 25.0)
    wf = wgt.build_weight(mf)
    print("\nflat space (no gap: constant grows linearly with the domain):")
    for R in (10.0, 20.0):
        res = var.poincare_eigen(wf, R)
        print(f"   domain radius {R:5.1f}: constant={res.best_constant:.4f} "
              f"(= R/pi = {R / math.pi:.4f})")

    mray = geo.build_model(geo.Euclidean(), 3, 60.0)
    wray = wgt.build_weight(mray)
    rep = wgt.supremum_B(wray, 6.0)
    seed = var.DiscreteFunction(*wgt.near_extremal(wray, rep))
    res = var.rayleigh_minimize(wray, 6.0, 50.0, init=seed)
    print(f"\nflat p=6 quotient: minimized ratio {res.ratio:.5f} "
          f"(enclosure [{1 / rep.sandwich_upper:.5f}, {1 / rep.B:.5f}])")

    mq = geo.build_model(geo.QuasiEuclideanOptimal(2.0, 1.0), 3, 1200.0)
    wq = wgt.build_weight(mq)
    print("\nquadratic decay, growing domains (p=3 < threshold 10/3 fails):")
    for p in (3.0, 4.0):
        scan = var.quasi_euclidean_failure_scan(wq, p, [10.0, 100.0, 1000.0])
        vals = "  ".join(f"R={R:6.0f}: {x:.4f}" for R, x in scan)
        print(f"   p={p}:  {vals}")


if __name__ == "__main__":
    main()
