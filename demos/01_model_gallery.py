#!/usr/bin/env python3
"""Gallery of radial model geometries.

Builds one model per curvature law, prints curvature reports at a few
radii, runs the nonpositive-curvature check, and checks the Laplacian
lower bound of Lemma 3.1 for a power law.
"""

from hadamard_ineq import geometry as geo

MODELS = [
    ("flat", geo.Euclidean(), 3, 20.0),
    ("constant curvature -1", geo.Hyperbolic(1.0), 3, 20.0),
    ("decay r^-1 outside r=1", geo.PowerLaw(1.0, 1.0, 1.0), 3, 200.0),
    ("decay 2 r^-2 outside r=1", geo.QuasiEuclideanOptimal(2.0, 1.0), 3, 200.0),
]


def main():
    for label, profile, N, rmax in MODELS:
        model = geo.build_model(profile, N, rmax)
        flag, _ = geo.is_cartan_hadamard(model)
        print(f"\n=== {label} (N={N}, built_by={model.built_by}) ===")
        print(f"  nonpositive curvature everywhere: {flag}")
        print(f"  {'r':>8} {'psi':>12} {'sect':>10} {'ric_rad':>10} {'lap_dens':>10}")
        for r in (0.5, 2.0, min(10.0, 0.5 * rmax)):
            c = geo.curvature_at(model, r)
            print(f"  {r:8.2f} {float(model.psi(r)):12.5g} {c.sect_radial:10.4f} "
                  f"{c.ric_radial:10.4f} {c.laplacian_density:10.4f}")

    # the Laplacian lower bound of Lemma 3.1 for a power-law geometry
    mp = geo.build_model(geo.PowerLaw(1.0, 1.0, 1.0), 3, 200.0)
    c, r0 = mp.profile.lemma31
    rep = geo.check_comparison(mp, mp.profile.barrier)
    print(f"\nLemma 3.1: psi'/psi >= {c:.4f} r^-1/2 for r >= {r0:.3g}: "
          f"holds={rep.holds}")


if __name__ == "__main__":
    main()
