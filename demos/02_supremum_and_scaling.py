#!/usr/bin/env python3
"""The weighted supremum B(w, p) and how it scales with the exponent.

Three stories:
  * constant negative curvature: B(2) = 1/(N-1), approached at infinity,
    so the best Poincare constant sits in [0.5, 1.0] for N = 3;
  * curvature decaying like -r^(-1): B(p) blows up like (p-2)^(-1) as the
    exponent drops toward 2, matching the predicted rate -beta/(2-beta);
  * quadratic decay -2 r^(-2): nothing below p = 10/3, finite above.
"""

import numpy as np

from hadamard_ineq import geometry as geo
from hadamard_ineq import weighted as wgt


def main():
    # constant curvature
    mh = geo.build_model(geo.Hyperbolic(1.0), 3, 20.0)
    wh = wgt.build_weight(mh)
    rep = wgt.supremum_B(wh, 2.0)
    print(f"constant curvature, p=2: B={rep.B:.6f} attained at infinity="
          f"{rep.at_infinity}, constant in [{rep.sandwich[0]:.3f}, {rep.sandwich[1]:.3f}]")
    for r in (0.5, 2.0, 8.0):
        print(f"   Q({r:4.1f}) = {float(wgt.Q_at(wh, 2.0, r)):.5f}")

    # slow decay: near-critical blowup
    mp = geo.build_model(geo.PowerLaw(1.0, 1.0, 1.0), 3, 20000.0,
                         grid=geo.GridSpec(n=6144, kind="log"))
    wp = wgt.build_weight(mp)
    ps = np.linspace(2.02, 2.2, 10)
    print("\ncurvature -r^(-1): supremum vs exponent")
    c, r0 = mp.profile.lemma31
    reports = [wgt.supremum_B(wp, float(p)) for p in ps]
    for p, r in zip(ps, reports):
        bound = wgt.lemma41_bound(3, 0.5, c, r0, float(p))
        print(f"   p={p:5.3f}  B={r.B:8.4f}  maximizer r={r.r_bar:10.2f}  "
              f"explicit bound/B = {bound / r.B:6.2f}")
    fit = wgt.scaling_regression(reports, "p_to_2")
    print(f"   fitted d(log B)/d(log(p-2)) = {fit.slope:.4f}   (predicted -1)")

    # quadratic decay: threshold exponent
    mq = geo.build_model(geo.QuasiEuclideanOptimal(2.0, 1.0), 3, 1200.0)
    wq = wgt.build_weight(mq)
    ntilde, two_tilde = wgt.critical_exponents(3, 2.0)
    print(f"\ncurvature -2 r^(-2): effective dimension {ntilde}, threshold {two_tilde:.4f}")
    for p in (2.5, 3.0, 10.0 / 3.0, 4.0, 6.0):
        r = wgt.supremum_B(wq, p)
        print(f"   p={p:5.3f}  " + ("diverges" if r.divergent else f"B={r.B:.4f}"))


if __name__ == "__main__":
    main()
