"""Direct variational estimates on the weighted half line.

Two independent routes to the same constants as the supremum criterion:
a generalized tridiagonal eigensolve for the p = 2 (spectral gap) case and
a projected-gradient minimizer of the weighted Rayleigh quotient

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
from scipy.integrate import quad
from scipy.sparse import diags
from scipy.sparse.linalg import eigsh, splu

from .errors import GridTooCoarse, InvalidExponent, OutOfDomain, ValidationError
from .geometry import ModelFunction, ricci_uniformization
from .weighted import (GL5_NODES, GL5_WEIGHTS, WeightMeasure, near_extremal, plin_norms,
                       sobolev_critical, unit_sphere_area)

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
    "unit_sphere_area",
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

class _Mesh:
    """P1 elements on the weight grid truncated at R_domain (Dirichlet there)."""

    def __init__(self, weight: WeightMeasure, R_domain: float, stride: int = 1):
        if R_domain > weight.Rmax * (1 + 1e-12):
            raise OutOfDomain(f"R_domain {R_domain} exceeds Rmax {weight.Rmax}")
        inner = weight.rgrid[weight.rgrid < R_domain * (1 - 1e-12)]
        nodes = np.concatenate([inner[::stride], [R_domain]])
        if nodes[0] != 0.0:
            nodes = np.concatenate([[0.0], nodes])
        if len(nodes) < 8:
            raise GridTooCoarse("mesh has too few nodes inside R_domain")
        self.weight = weight
        self.nodes = nodes
        self.h = np.diff(nodes)
        self.wint = (np.asarray(weight.W_at(nodes[1:]), float)
                     - np.asarray(weight.W_at(nodes[:-1]), float))
        # Gauss data per element for mass / Lp quadrature
        mid = 0.5 * (nodes[:-1] + nodes[1:])
        half = 0.5 * self.h
        self.qpts = mid[None, :] + half[None, :] * GL5_NODES[:, None]
        self.qw = GL5_WEIGHTS[:, None] * half[None, :]
        self.wq = weight.w_at(self.qpts)
        # hat function values at quadrature points: phi_left, phi_right
        self.phi_r = (self.qpts - nodes[None, :-1]) / self.h[None, :]
        self.phi_l = 1.0 - self.phi_r

    @property
    def n_free(self):
        return len(self.nodes) - 1  # all but the Dirichlet node

    def stiffness(self):
        k = self.wint / self.h ** 2  # element integral of w * phi' * phi'
        n = self.n_free
        main = np.zeros(n)
        main[:] = k[:n]
        main[1:] += k[: n - 1]
        off = -k[: n - 1]
        return diags([off, main, off], [-1, 0, 1], format="csc")

    def mass(self):
        mll = np.sum(self.qw * self.wq * self.phi_l ** 2, axis=0)
        mrr = np.sum(self.qw * self.wq * self.phi_r ** 2, axis=0)
        mlr = np.sum(self.qw * self.wq * self.phi_l * self.phi_r, axis=0)
        n = self.n_free
        main = np.zeros(n)
        main[:] = mll[:n]
        main[1:] += mrr[: n - 1]
        off = mlr[: n - 1]
        return diags([off, main, off], [-1, 0, 1], format="csc")

    def full(self, gf):
        return np.concatenate([gf, [0.0]])

    def pnorm(self, gf, p):
        g = self.full(gf)
        gq = self.phi_l * g[None, :-1] + self.phi_r * g[None, 1:]
        return float(np.sum(self.qw * self.wq * np.abs(gq) ** p)) ** (1.0 / p)

    def pnorm_gradient(self, gf, p):
        """d/dg_i of int w |g|^p (not yet normalized)."""
        g = self.full(gf)
        gq = self.phi_l * g[None, :-1] + self.phi_r * g[None, 1:]
        core = self.qw * self.wq * p * np.abs(gq) ** (p - 1.0) * np.sign(gq)
        left = np.sum(core * self.phi_l, axis=0)
        right = np.sum(core * self.phi_r, axis=0)
        out = np.zeros(len(self.nodes))
        out[:-1] += left
        out[1:] += right
        return out[: self.n_free]


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
    A = mesh.stiffness()
    M = mesh.mass()
    v0 = np.ones(mesh.n_free)  # fixed start vector keeps runs reproducible
    vals, vecs = eigsh(A, k=1, M=M, sigma=0.0, which="LM", v0=v0)
    return float(vals[0]), vecs[:, 0]


def poincare_eigen(weight: WeightMeasure, R_domain: float,
                   check_convergence: bool = True) -> PoincareResult:
    """Smallest eigenvalue of -(w g')' = lambda w g, Dirichlet at R_domain.

    best_constant = 1/sqrt(lambda1) increases with R_domain toward the
    constant of the full geometry.  A coarsened re-solve guards the mesh:
    more than 1% drift raises GridTooCoarse.
    """
    mesh = _Mesh(weight, R_domain)
    lam, vec = _smallest_eig(mesh)
    if lam <= 0:
        raise GridTooCoarse("nonpositive leading eigenvalue; mesh unusable")
    if check_convergence:
        lam2, _ = _smallest_eig(_Mesh(weight, R_domain, stride=2))
        if abs(lam2 - lam) > 0.01 * lam:
            raise GridTooCoarse(
                f"eigenvalue moved {abs(lam2 - lam) / lam:.2%} under coarsening")
    g = mesh.full(vec)
    i = np.argmax(np.abs(g))
    g = g / g[i]
    return PoincareResult(lambda1=lam, best_constant=1.0 / math.sqrt(lam),
                          r=mesh.nodes, eigenfunction=g)


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
                      max_iter: int = 2000, tol: float = 1e-11) -> RayleighResult:
    """Locally minimize ||g'||_{2,w} / ||g||_{p,w} with g(R_domain) = 0.

    Projected gradient descent on the constraint ||g||_{p,w} = 1 with
    backtracking; deterministic given the initial iterate.  The returned
    ratio is always an upper bound for the infimum; non-convergence is
    reported through the flag, with the best iterate returned.
    """
    if p < 2.0:
        raise InvalidExponent(f"need p >= 2, got {p}")
    mesh = _Mesh(weight, R_domain)
    A = mesh.stiffness()

    if init is None:
        if weight.tail.family != "divergent":
            er, eg = near_extremal(weight, p)
            g0 = np.interp(mesh.nodes[:-1], er, eg, left=eg[0], right=0.0)
        else:
            g0 = np.maximum(1.0 - mesh.nodes[:-1] / R_domain, 0.0)
    else:
        g0 = np.interp(mesh.nodes[:-1], init.r, init.values, left=init.values[0], right=0.0)
    g = np.asarray(g0, float)
    if not np.any(g != 0.0):
        raise ValidationError("initial iterate vanishes identically")

    def J(gv):
        nv = mesh.pnorm(gv, p)
        return float(gv @ (A @ gv)) / nv ** 2

    solve = splu(A.tocsc()).solve  # preconditioner: descend in the gradient metric
    g = g / mesh.pnorm(g, p)
    val = J(g)
    it = 0
    converged = False
    for it in range(1, max_iter + 1):
        Ag = A @ g
        E = float(g @ Ag)
        dN = mesh.pnorm_gradient(g, p) / p  # gradient of pnorm at norm 1
        direction = g - E * solve(dN)  # A^{-1} of the projected gradient
        eta = 1.0
        improved = False
        for _ in range(50):
            trial = g - eta * direction
            tn = mesh.pnorm(trial, p)
            if tn > 0:
                trial = trial / tn
                tval = J(trial)
                if tval < val * (1.0 - 1e-16):
                    improved = True
                    break
            eta *= 0.5
        if not improved:
            converged = True
            break
        rel = (val - tval) / max(val, 1e-300)
        g, val = trial, tval
        if rel < tol:
            converged = True
            break
    return RayleighResult(ratio=math.sqrt(val), r=mesh.nodes,
                          minimizer=mesh.full(g), converged=converged,
                          iterations=it)


def quasi_euclidean_failure_scan(weight: WeightMeasure, p: float, R_list,
                                 refine: bool = True):
    """Minimal Rayleigh ratios over growing domains.

    The tent g = min(1, 2 (R - r) / R) supplies an upper bound and the
    initial iterate; ``refine`` polishes it with the local minimizer.
    Ratios shrink to zero with R below the threshold exponent and
    stabilize above it.
    """
    out = []
    for R in sorted(float(R) for R in R_list):
        if R > weight.Rmax:
            raise OutOfDomain(f"R = {R} beyond sampled range {weight.Rmax}")
        inner = weight.rgrid[(weight.rgrid > 0) & (weight.rgrid < R)]
        nodes = np.unique(np.concatenate([inner, [R / 2.0, R]]))
        g = np.minimum(1.0, 2.0 * (R - nodes) / R)
        grad, pn = plin_norms(weight, nodes, g, p)
        ratio = grad / pn
        if refine:
            res = rayleigh_minimize(weight, p, R,
                                    init=DiscreteFunction(nodes, g), max_iter=800)
            ratio = min(ratio, res.ratio)
        out.append((R, ratio))
    return out


# ---------------------------------------------------------------------------
# nonradial failure certificate
# ---------------------------------------------------------------------------

def sinh_moment(N: int) -> float:
    """integral_0^1 sinh(s)^(N-1) ds."""
    val, _ = quad(lambda s: math.sinh(s) ** (N - 1), 0.0, 1.0)
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
    lp_lower = (om / (2.0 ** (p + N) * N)) ** (1.0 / p) * G ** (N / p)
    grad_upper = math.sqrt(om * aN * G ** (N - 2.0))
    return lp_lower / grad_upper


def nonradial_certificate(model: ModelFunction, p: float, R: float,
                          allow_constant: bool = False) -> CertificateReport:
    """Lower bound on any admissible embedding constant from a tent function
    centered at distance R + G(R) from the pole.

    The bound scales like G(R)^(N (1/p - 1/2*)): it grows without bound for
    p below the critical exponent whenever G does, and is exactly
    R-independent at the critical exponent.
    """
    crit = sobolev_critical(model.N)
    if not (2.0 <= p <= crit):
        raise InvalidExponent(f"need 2 <= p <= {crit}, got {p}")
    G1 = ricci_uniformization(model, R, allow_constant=allow_constant)
    v1 = _certificate_value(model.N, p, G1)
    G2 = ricci_uniformization(model, 2.0 * R, allow_constant=allow_constant)
    v2 = _certificate_value(model.N, p, G2)
    conclusion = "grows" if v2 > v1 * (1.0 + 1e-9) else "bounded"
    return CertificateReport(R=float(R), G=G1, p=float(p),
                             lower_bound_on_C=v1, conclusion=conclusion)


def certificate_scan(model: ModelFunction, p: float, R_list,
                     allow_constant: bool = False):
    return [nonradial_certificate(model, p, float(R), allow_constant=allow_constant)
            for R in sorted(R_list)]
