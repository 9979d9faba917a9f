"""Weighted Sobolev/Poincare inequality machinery on radial model geometries.

Submodules:

* ``geometry``    -- warping functions from curvature laws, curvature reports,
                     comparison checks, curvature scale G(R)
* ``weighted``    -- W/T integrals, the supremum B(w, p), constant sandwich,
                     explicit proof-chain bounds, exponent regression
* ``variational`` -- spectral gap eigensolve, Rayleigh quotient minimization,
                     domain-growth failure scans, nonradial growth certificate
* ``pme``         -- radial porous-medium flow and decay-law fits
* ``cli``         -- deterministic command-line front end
"""

__version__ = "0.1.0"

from . import errors
from .geometry import (
    Constant,
    Euclidean,
    ExponentialPower,
    GridSpec,
    Hyperbolic,
    ModelFunction,
    PowerLaw,
    QuasiEuclideanOptimal,
    build_model,
    check_comparison,
    curvature_at,
    is_cartan_hadamard,
    lemma31_constants,
    model_from_csv,
    model_to_csv,
    ricci_uniformization,
)
from .weighted import (
    SupremumReport,
    WeightMeasure,
    build_weight,
    critical_exponents,
    lemma41_bound,
    lemma42_bound,
    mckean_bounds,
    Q_at,
    sandwich,
    scaling_regression,
    supremum_B,
)
from .variational import (
    nonradial_certificate,
    poincare_eigen,
    quasi_euclidean_failure_scan,
    rayleigh_minimize,
)
from .pme import (
    Characteristic,
    GaussianLike,
    PMEConfig,
    fit_smoothing,
    moser_chain_constant,
    pme_run,
    reference_curves,
)
