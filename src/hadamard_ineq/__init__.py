"""Weighted Sobolev/Poincare inequality machinery on radial model geometries.

The root holds only ``__version__``; each name is imported from its
submodule (``from hadamard_ineq import geometry``):

* ``geometry``    -- warping functions from curvature laws, curvature reports,
                     comparison checks, curvature scale G(R)
* ``weighted``    -- W/T integrals, the supremum B(w, p), constant sandwich,
                     explicit proof-chain bounds, exponent regression
* ``variational`` -- spectral gap eigensolve, Rayleigh quotient minimization,
                     domain-growth failure scans, nonradial growth certificate
* ``pme``         -- radial porous-medium flow and decay-law fits
* ``report_io``, ``errors`` -- output files, typed exceptions
* ``cli``         -- deterministic command-line front end
"""

__version__ = "0.1.0"
