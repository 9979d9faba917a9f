"""Direct variational estimates on the weighted half line.

Two independent routes to the same constants as the supremum criterion:
inertia bisection on the tridiagonal pencil for the p = 2 (spectral gap)
case and a projected-gradient minimizer of the weighted Rayleigh quotient

    ||g'||_{2,w} / ||g||_{p,w}

over piecewise-linear functions vanishing at an outer radius.  Also the
growth certificate showing that no p < 2N/(N-2) embedding survives for
general (nonradial) functions once the Ricci curvature fades at infinity:
the certificate evaluates the two closed-form volume bounds of a tent
function sitting at distance R + G(R) from the pole and tracks their ratio
along a doubling sequence of R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._kernels import dpttrf, pttrs_solver
from .errors import (GridTooCoarse, InvalidExponent, OutOfDomain, ParameterOutOfRange,
                     ValidationError)
from .geometry import (GL5_NODES, GL5_WEIGHTS, ModelFunction, _sorted_unique,
                       ricci_uniformization)
from .weighted import (_PHI_L, _PHI_R, SupremumReport, WeightMeasure, near_extremal,
                       plin_norms, sobolev_critical, supremum_B, unit_sphere_area)

__all__ = [
    "DiscreteFunction",
    "PoincareResult",
    "RayleighResult",
    "CertificateReport",
    "poincare_eigen",
    "rayleigh_minimize",
    "quasi_euclidean_failure_scan",
    "nonradial_certificate",
    "certificate_scan",
    "sinh_moment",
]

@dataclass
class DiscreteFunction:
    """Piecewise-linear radial function with compact support."""

    r: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.r = np.asarray(self.r, float)
        self.values = np.asarray(self.values, float)
        if self.r.shape != self.values.shape or self.r.ndim != 1:
            raise ValidationError("nodes and values must be matching 1-d arrays")
        if np.any(np.diff(self.r) <= 0):
            raise ValidationError("nodes must be strictly increasing")


# ---------------------------------------------------------------------------
# finite element pieces
# ---------------------------------------------------------------------------

def _assemble(ll, rr, lr):
    """(main, off) diagonals over the free nodes of the symmetric matrix to
    which element e adds [[ll_e, lr_e], [lr_e, rr_e]] at its nodes e, e + 1."""
    main = ll.copy()
    main[1:] += rr[:-1]
    return main, lr[:-1]


def _tridiagonal_matvec(main, off, x):
    y = main * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


def _in_domain(weight: WeightMeasure, R: float, name: str = "R_domain") -> float:
    """R itself if it lies in (0, Rmax], read to 1e-12 relative; else OutOfDomain."""
    if not 0.0 < R <= weight.Rmax * (1 + 1e-12):
        raise OutOfDomain(f"{name} {R} must lie in (0, Rmax = {weight.Rmax}]")
    return R


class _Mesh:
    """P1 elements on the weight grid truncated at R_domain (Dirichlet there)."""

    def __init__(self, weight: WeightMeasure, R_domain: float, stride: int = 1):
        _in_domain(weight, R_domain)
        inner = weight.rgrid[weight.rgrid < R_domain * (1 - 1e-12)]
        nodes = np.concatenate([inner[::stride], [R_domain]])  # rgrid starts at the pole
        if len(nodes) < 8:
            raise GridTooCoarse("mesh has too few nodes inside R_domain")
        self.nodes = nodes
        h = np.diff(nodes)
        self.k = np.diff(weight.W_at(nodes)) / h ** 2  # element integral of w * phi' * phi'
        # Gauss weight times w per element, for mass and L^p quadrature
        qpts = 0.5 * (nodes[:-1] + nodes[1:]) + 0.5 * h * GL5_NODES[:, None]
        self.qwwq = GL5_WEIGHTS[:, None] * 0.5 * h * weight.w_at(qpts)
        # stiffness A and mass M; A = L D L^T preconditions rayleigh, A - s M bisects
        self.A = _assemble(self.k, self.k, -self.k)
        self.M = _assemble(*(np.array([_PHI_L ** 2, _PHI_R ** 2, _PHI_L * _PHI_R]) @ self.qwwq))
        # power_sum's work arrays: on a fine mesh a (5, n) temporary exceeds
        # glibc's 128 KiB mmap threshold, so fresh ones would be mapped and
        # page-faulted on every call
        self._work = np.empty((4,) + self.qwwq.shape)
        d, e, info = dpttrf(*self.A)
        if info != 0:
            raise GridTooCoarse(f"stiffness matrix is not positive definite (dpttrf info {info})")
        self._rhs = np.empty(self.n_free)
        self._solve = pttrs_solver(d, e, self._rhs)

    @property
    def n_free(self):
        return len(self.nodes) - 1  # all but the Dirichlet node

    def solve(self, b):
        """A^{-1} b, in an array that the next call overwrites."""
        self._rhs[:] = b
        self._solve()
        return self._rhs

    def full(self, gf):
        return np.concatenate([gf, [0.0]])

    def energy(self, gf):
        """g . A g summed over elements, free of the cancellation in g . (A g)."""
        return float(self.k @ np.diff(self.full(gf)) ** 2)

    def power_sum(self, gf, p):
        """int w |g|^p and its gradient in the free nodal values g_i, from
        one evaluation of |g|^(p-1) at the Gauss points."""
        g = self.full(gf)
        gq, aq, wa, core = self._work
        np.multiply(_PHI_L[:, None], g[:-1], out=gq)  # g at the Gauss points
        np.multiply(_PHI_R[:, None], g[1:], out=core)
        gq += core
        np.abs(gq, out=aq)
        np.power(aq, p - 1.0, out=wa)
        wa *= self.qwwq
        np.multiply(wa, p, out=core)
        np.copysign(core, gq, out=core)
        grad = _PHI_L @ core  # a new array, never one of the work arrays
        grad[1:] += _PHI_R @ core[:, :-1]
        aq *= wa
        return float(np.sum(aq)), grad


# ---------------------------------------------------------------------------
# spectral gap
# ---------------------------------------------------------------------------

@dataclass
class PoincareResult:
    lambda1: float
    best_constant: float
    r: np.ndarray
    eigenfunction: np.ndarray


def _smallest_eig(mesh: _Mesh):
    """A - s M factors (dpttrf info 0) exactly when s < lambda1 (Sylvester's
    law of inertia), so [0, quotient of the ones vector] is bisected to
    adjacent doubles; two inverse-iteration solves at the lower end give the
    eigenvector, and its Rayleigh quotient the eigenvalue."""
    mass = lambda v: _tridiagonal_matvec(*mesh.M, v)
    shifted = lambda s: dpttrf(mesh.A[0] - s * mesh.M[0], mesh.A[1] - s * mesh.M[1])
    v = np.ones(mesh.n_free)
    lo, hi = 0.0, mesh.energy(v) / float(v @ mass(v))
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if shifted(mid)[2] == 0 else (lo, mid)
    d, e, _ = shifted(lo)
    x = np.empty(mesh.n_free)
    inverse = pttrs_solver(d, e, x)
    for _ in range(2):
        x[:] = mass(v)
        inverse()
        v = x / x[np.argmax(np.abs(x))]
    return mesh.energy(v) / float(v @ mass(v)), v


def poincare_eigen(weight: WeightMeasure, R_domain: float) -> PoincareResult:
    """Smallest eigenvalue of -(w g')' = lambda w g, Dirichlet at R_domain.

    best_constant = 1/sqrt(lambda1) increases with R_domain toward the
    constant of the full geometry.  A coarsened re-solve guards the mesh:
    more than 1% drift raises GridTooCoarse.
    """
    mesh = _Mesh(weight, R_domain)
    lam, vec = _smallest_eig(mesh)
    lam2, _ = _smallest_eig(_Mesh(weight, R_domain, stride=2))
    if abs(lam2 - lam) > 0.01 * lam:
        raise GridTooCoarse(f"eigenvalue moved {abs(lam2 - lam) / lam:.2%} under coarsening")
    return PoincareResult(lambda1=lam, best_constant=1.0 / math.sqrt(lam),
                          r=mesh.nodes, eigenfunction=mesh.full(vec))


# ---------------------------------------------------------------------------
# Rayleigh quotient minimization
# ---------------------------------------------------------------------------

@dataclass
class RayleighResult:
    ratio: float
    r: np.ndarray
    minimizer: np.ndarray
    converged: bool
    iterations: int


def rayleigh_minimize(weight: WeightMeasure, p: float, R_domain: float,
                      init: Optional[DiscreteFunction] = None,
                      max_iter: int = 2000, tol: float = 1e-11,
                      supremum: Optional[SupremumReport] = None) -> RayleighResult:
    """Locally minimize ||g'||_{2,w} / ||g||_{p,w} with g(R_domain) = 0.

    Projected gradient descent on the constraint ||g||_{p,w} = 1 with
    backtracking; deterministic given the initial iterate.  Without
    ``init`` it starts from the near-extremal shape of ``supremum``, the
    report of ``supremum_B(weight, p)`` (searched here when not given), or
    from the tent 1 - r/R_domain on a divergent weight, which has no
    supremum to start from.  The returned ratio is always an upper bound
    for the infimum; non-convergence is reported through the flag, with
    the best iterate returned.
    """
    if p < 2.0:
        raise InvalidExponent(f"need p >= 2, got {p}")
    if supremum is not None and supremum.p != p:
        raise ValidationError(f"the supremum report is for p = {supremum.p}, not {p}")
    mesh = _Mesh(weight, R_domain)

    if init is None and not weight.divergent:
        if supremum is None:
            supremum = supremum_B(weight, p)
        init = DiscreteFunction(*near_extremal(weight, supremum))
    if init is None:
        g0 = np.maximum(1.0 - mesh.nodes[:-1] / R_domain, 0.0)
    else:
        g0 = np.interp(mesh.nodes[:-1], init.r, init.values, left=init.values[0], right=0.0)
    g = np.asarray(g0, float)
    if not np.any(g != 0.0):
        raise ValidationError("initial iterate vanishes identically")

    # one power_sum per trial: v / n has quotient v.A.v / n^2, and its gradient
    # of int w |.|^p / p is grad(int w |v|^p) / (p n^(p-1))
    total, grad = mesh.power_sum(g, p)
    gn = total ** (1.0 / p)
    g, val, dN = g / gn, mesh.energy(g) / gn ** 2, grad / (p * gn ** (p - 1.0))
    it = 0
    converged = False
    for it in range(1, max_iter + 1):
        direction = g - val * mesh.solve(dN)  # A^{-1} of the projected gradient
        eta = 1.0
        improved = False
        for _ in range(50):
            trial = g - eta * direction
            total, grad = mesh.power_sum(trial, p)
            tn = total ** (1.0 / p)
            if tn > 0:
                tval = mesh.energy(trial) / tn ** 2
                if tval < val * (1.0 - 1e-16):
                    improved = True
                    break
            eta *= 0.5
        if not improved:
            converged = True
            break
        rel = (val - tval) / max(val, 1e-300)
        g, val, dN = trial / tn, tval, grad / (p * tn ** (p - 1.0))
        if rel < tol:
            converged = True
            break
    return RayleighResult(ratio=math.sqrt(val), r=mesh.nodes,
                          minimizer=mesh.full(g), converged=converged,
                          iterations=it)


def quasi_euclidean_failure_scan(weight: WeightMeasure, p: float, R_list):
    """Minimal Rayleigh ratios over growing domains.

    The tent g = min(1, 2 (R - r) / R) supplies an upper bound and the
    initial iterate, which the local minimizer then polishes.
    Ratios shrink to zero with R below the threshold exponent and
    stabilize above it.
    """
    out = []
    for R in sorted(_in_domain(weight, float(R), "R =") for R in R_list):  # all checked first
        inner = weight.rgrid[(weight.rgrid > 0) & (weight.rgrid < R)]
        nodes = _sorted_unique(np.concatenate([inner, [R / 2.0, R]]))
        g = np.minimum(1.0, 2.0 * (R - nodes) / R)
        grad, pn = plin_norms(weight, nodes, g, p)
        res = rayleigh_minimize(weight, p, R,
                                init=DiscreteFunction(nodes, g), max_iter=800)
        out.append((R, min(grad / pn, res.ratio)))
    return out


# ---------------------------------------------------------------------------
# nonradial failure certificate
# ---------------------------------------------------------------------------

def sinh_moment(N: int) -> float:
    """integral_0^1 sinh(s)^(N-1) ds, by the reduction formula
    I_n = sinh(1)^(n-1) cosh(1) / n - (n-1)/n I_(n-2), I_0 = 1, I_1 = cosh(1) - 1."""
    n = N - 1
    val = math.cosh(1.0) - 1.0 if n % 2 else 1.0
    for m in range(2 + n % 2, n + 1, 2):
        val = math.sinh(1.0) ** (m - 1) * math.cosh(1.0) / m - (m - 1) / m * val
    return val


@dataclass
class CertificateReport:
    R: float
    G: float
    p: float
    lower_bound_on_C: float
    conclusion: str


def _certificate_value(N: int, p: float, G: float) -> float:
    om = unit_sphere_area(N)
    aN = sinh_moment(N)
    try:
        lp_lower = (om / (2.0 ** (p + N) * N)) ** (1.0 / p) * G ** (N / p)
        grad_upper = math.sqrt(om * aN * G ** (N - 2.0))
    except OverflowError:
        grad_upper = math.inf
    if math.isinf(grad_upper):
        raise ParameterOutOfRange(f"dimension N = {N} is too large: the tent function's "
                                  f"norms overflow float64 at G = {G:.6g}")
    return lp_lower / grad_upper


def nonradial_certificate(model: ModelFunction, p: float, R: float) -> CertificateReport:
    """Lower bound on any admissible embedding constant from a tent function
    centered at distance R + G(R) from the pole.

    The bound scales like G(R)^(N (1/p - 1/2*)): it grows without bound for
    p below the critical exponent whenever G does, and is exactly
    R-independent at the critical exponent.  R <= 0.4 Rmax: G is also taken at 2R.
    """
    crit = sobolev_critical(model.N)
    if not (2.0 <= p <= crit):
        raise InvalidExponent(f"need 2 <= p <= {crit}, got {p}")
    if not (0.0 < R <= 0.4 * model.Rmax):
        raise OutOfDomain(f"need 0 < R <= 0.4 Rmax = {0.4 * model.Rmax:.6g}: the "
                          f"certificate also needs G at 2R = {2.0 * R:.6g} <= 0.8 Rmax")
    G1 = ricci_uniformization(model, R)
    v1 = _certificate_value(model.N, p, G1)
    G2 = ricci_uniformization(model, 2.0 * R)
    v2 = _certificate_value(model.N, p, G2)
    conclusion = "grows" if v2 > v1 * (1.0 + 1e-9) else "bounded"
    return CertificateReport(R=float(R), G=G1, p=float(p),
                             lower_bound_on_C=v1, conclusion=conclusion)


def certificate_scan(model: ModelFunction, p: float, R_list):
    return [nonradial_certificate(model, p, float(R)) for R in sorted(R_list)]
