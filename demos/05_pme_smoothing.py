#!/usr/bin/env python3
"""Porous-medium decay rates across the three curvature regimes.

Flat space reproduces the classical self-similar rate (a pure solver
check), quadratic curvature decay shows the effective-dimension rate, and
slow decay exhibits the logarithmically corrected t^(-1/(m-1)) law: the
pinned log model fits the late-time data better than a free power law.
"""

import numpy as np

from hadamard_ineq import geometry as geo
from hadamard_ineq import pme
from hadamard_ineq import weighted as wgt


def main():
    print("flat space, m=2 (target slope -3/5):")
    mf = geo.build_model(geo.Euclidean(), 3, 30.0)
    run = pme.pme_run(pme.PMEConfig(m=2.0, model=mf, R_domain=24.0,
                                    initial=pme.Characteristic(1.0, 1.0),
                                    t_end=200.0, n_cells=600))
    fit = pme.fit_smoothing(run.states, "power_only", window=(2.0, 200.0))
    print(f"   fitted slope {fit.power_exponent:.4f}  "
          f"(mass drift {abs(run.states[-1].mass / run.states[0].mass - 1):.1e})")

    ntilde, _ = wgt.critical_exponents(3, 2.0)
    print(f"\nquadratic curvature decay, m=2 (effective dimension {ntilde}, "
          f"target slope {-pme.smoothing_exponent(ntilde, 2.0):.4f}):")
    mq = geo.build_model(geo.QuasiEuclideanOptimal(2.0, 1.0), 3, 60.0)
    run = pme.pme_run(pme.PMEConfig(m=2.0, model=mq, R_domain=50.0,
                                    initial=pme.Characteristic(2.0, 1.0),
                                    t_end=500.0, n_cells=800))
    fit = pme.fit_smoothing(run.states, "power_only", window=(5.0, 500.0))
    print(f"   fitted slope {fit.power_exponent:.4f}")

    print("\nslow curvature decay -r^(-1), m=2 "
          "(log-corrected law, exponent 3 on the log factor):")
    mp = geo.build_model(geo.PowerLaw(1.0, 1.0, 1.0), 3, 130.0)
    run = pme.pme_run(pme.PMEConfig(m=2.0, model=mp, R_domain=100.0,
                                    initial=pme.Characteristic(2.0, 4.0),
                                    t_end=1e10, n_cells=1000,
                                    output_times=np.geomspace(1e4, 1e10, 90)))
    mass = run.states[0].mass
    window = (1e8, 1e10)
    fit_p = pme.fit_smoothing(run.states, "power_only", window=window)
    fit_l = pme.fit_smoothing(run.states, "power_with_log", m=2.0, beta=1.0,
                              mass=mass, window=window)
    print(f"   free power fit:   slope {fit_p.power_exponent:.4f}, "
          f"residual {fit_p.residual_rms:.2e}")
    print(f"   pinned log model: residual {fit_l.residual_rms:.2e} "
          f"(smaller means the log factor is really there)")
    K_up, K_lo, _ = pme.fit_envelopes(run.states, 1.0, 2.0, mass, window=window)
    print(f"   envelope amplitudes: upper {K_up:.4g}, lower {K_lo:.4g}")


if __name__ == "__main__":
    main()
