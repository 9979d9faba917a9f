"""Radial porous-medium flow u_t = Laplacian(u^m) on a model geometry.

Conservative finite volumes for the reduced one-dimensional form

    u_t = psi^(1-N) ( psi^(N-1) (u^m)_r )_r ,

backward-Euler time stepping with Newton on the tridiagonal Jacobian, and
decay-law fitting of the sup norm against the two analytic envelopes
(power decay with and without a logarithmic correction).  The scheme is
monotone at any step: mass is conserved to rounding while the support stays
interior, the sup norm never increases, and ordered data stay ordered.
Solutions have compact support, so each Newton system runs only from the pole
to the front plus ``_NEWTON_CAP`` + 2 cells; the cells past it stay exactly 0
and the result is the full-domain solve's to the bit (see :func:`pme_run`).

An initial datum is any object whose ``values(centers)`` returns u0 at the cell
centers: :class:`Characteristic`, :class:`GaussianLike` or :class:`CustomTable`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._kernels import gtsv_solver
from .errors import (
    InsufficientWindow,
    ParameterOutOfRange,
    StabilityFailure,
    ValidationError,
)
from .geometry import ModelFunction, _gl5, _line_fit, _sorted_unique
from .weighted import unit_sphere_area

__all__ = [
    "Characteristic",
    "GaussianLike",
    "CustomTable",
    "PMEConfig",
    "PMEState",
    "PMERun",
    "SmoothingFit",
    "pme_run",
    "fit_smoothing",
    "reference_curves",
    "lower_curve",
    "fit_envelopes",
    "smoothing_exponent",
]

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Characteristic:
    r_support: float
    height: float = 1.0

    def values(self, centers):
        if self.r_support <= 0 or self.height <= 0:
            raise ValidationError("characteristic datum needs positive size and height")
        return np.where(centers <= self.r_support, self.height, 0.0)


@dataclass(frozen=True)
class GaussianLike:
    scale: float
    height: float = 1.0

    def values(self, centers):
        if self.scale <= 0 or self.height <= 0:
            raise ValidationError("gaussian-like datum needs positive scale and height")
        u = self.height * np.exp(-((centers / self.scale) ** 2))
        return np.where(u > 1e-14 * self.height, u, 0.0)


@dataclass(frozen=True)
class CustomTable:
    r: np.ndarray
    u: np.ndarray

    def values(self, centers):
        u = np.interp(centers, np.asarray(self.r, float),
                      np.asarray(self.u, float), left=None, right=0.0)
        if np.any(u < 0):
            raise ValidationError("custom datum must be nonnegative")
        return u


_GROWTH = 0.02  # steps are max(dt0, _GROWTH t), dt0 the explicit stability limit of u0
_NEWTON_TOL = 1e-13  # residual over the Jacobian diagonal, relative to sup u before the step
_NEWTON_CAP = 30
_SUPPORT_THRESHOLD = 1e-12  # u at or below this fraction of sup u0 lies outside the support


@dataclass
class PMEConfig:
    m: float
    model: ModelFunction
    R_domain: float
    initial: object  # any datum with values(centers), u0 at the cell centers
    t_end: float
    output_times: Optional[np.ndarray] = None
    n_cells: int = 800
    dt_fixed: Optional[float] = None

    def __post_init__(self):
        if not 1.0 < self.m < math.inf:
            raise ValidationError(f"m must be finite and > 1, got {self.m}")
        if not callable(getattr(self.initial, "values", None)):
            raise ValidationError(f"initial datum {self.initial!r} has no values(centers)")
        if not (0 < self.R_domain <= self.model.Rmax * (1 + 1e-12)):
            raise ValidationError("R_domain must lie in (0, Rmax]")
        if not 0.0 < self.t_end < math.inf:
            raise ValidationError(f"t_end must be positive and finite, got {self.t_end}")
        if self.n_cells < 50:
            raise ValidationError("need at least 50 cells")
        if self.dt_fixed is not None and not 0.0 < self.dt_fixed < math.inf:
            raise ValidationError(f"dt_fixed must be positive and finite, got {self.dt_fixed}")


@dataclass
class PMEState:
    t: float
    u: np.ndarray
    mass: float
    sup: float
    support_edge: float


@dataclass
class PMERun:
    r_centers: np.ndarray
    r_faces: np.ndarray
    states: list
    stopped_early: bool
    stop_reason: Optional[str]
    steps: int
    newton_iterations: int


def _support_edge(u, faces, threshold):
    live = np.flatnonzero(u > threshold)
    return float(faces[live[-1] + 1]) if live.size else 0.0


def pme_run(config: PMEConfig) -> PMERun:
    """Advance the flow by backward Euler and emit snapshots at the output times.

    Stops early (flagged, not raised) once the support reaches the guard two
    cells inside the outer boundary: states past it would be polluted by the wall.

    Each step's Newton system covers the cells from the pole to the last cell
    where u or the predictor is nonzero, plus ``_NEWTON_CAP`` + 2 more, and
    leaves every cell past them exactly 0.  This is exact, not an approximation:
    a row whose cell and left neighbour are both 0 has zero residual and zero
    off-diagonals, so Newton moves the front at most one cell per iteration;
    and the Jacobian diag(vol) + dt L diag(m u^(m-1)) is strictly column
    diagonally dominant, so ``dgtsv`` makes no row interchange and the
    decoupled trailing rows change none of the window's arithmetic.
    """
    model, m = config.model, config.m
    area = unit_sphere_area(model.N)
    faces = np.linspace(0.0, config.R_domain, config.n_cells + 1)
    dx = faces[1] - faces[0]
    centers = 0.5 * (faces[:-1] + faces[1:])

    # cell volumes int w dr and face conductivities w(face)/dx
    w = lambda s: np.exp(model.log_weight(s))
    with np.errstate(over="ignore"):  # refused just below, naming the dimension
        vol = _gl5(w, centers, 0.5 * dx)
        cond = w(faces[1:-1]) / dx  # interior faces only; flux vanishes at r = 0 and the wall
    if not (np.isfinite(vol).all() and np.isfinite(cond).all() and vol.min() > 0.0):
        raise ParameterOutOfRange(f"cell volumes leave the float64 range in dimension "
                                  f"N = {model.N} on R_domain = {config.R_domain:g}")
    cond_sum = np.append(cond, 0.0) + np.insert(cond, 0, 0.0)

    u = config.initial.values(centers)
    sup0 = float(np.max(u))
    thr = _SUPPORT_THRESHOLD * sup0
    if _support_edge(u, faces, thr) > config.R_domain / 2 + dx:
        raise ValidationError("initial datum must be supported in [0, R_domain/2]")

    out_t = config.output_times
    if out_t is None:
        out_t = np.geomspace(config.t_end * 1e-4, config.t_end, 60)
    out_t = np.asarray(out_t, float)
    if not (np.isfinite(out_t).all() and (out_t >= 0.0).all()):
        raise ValidationError("output times must be finite and nonnegative")
    out_t = _sorted_unique(np.append(out_t, 0.0))
    if out_t[-1] > config.t_end:
        raise ValidationError("output times exceed t_end")

    def snapshot(t):
        return PMEState(t=float(t), u=u.copy(),
                        mass=area * float(u @ vol),
                        sup=float(np.max(u)) if u.size else 0.0,
                        support_edge=_support_edge(u, faces, thr))

    flux = np.zeros(config.n_cells + 1)
    # the Newton loop's work arrays; each step takes its window's views of them
    # (and of flux) once, and its iterations reuse those views.  Numpy keeps up
    # to seven freed buffers of each size under 1 KiB, so fresh temporaries of
    # every window size under 128 cells would stay allocated (about 0.4 MB)
    work = np.empty((5, config.n_cells))
    # dgtsv bound once to the rows of the sub-, main and super-diagonal and the
    # residual; a window's system is their first k entries
    solve = gtsv_solver(work[0], work[3], work[4], work[2])
    iterations = 0

    def backward_euler(t_new):
        """Newton from the state u at t to t_new, starting from the last rate,
        on the cells [0, k) that the front can reach (see pme_run)."""
        nonlocal iterations
        dt = t_new - t
        off, dt_sum, tol = -dt * cond, dt * cond_sum, _NEWTON_TOL * u.max()
        x = np.maximum(u + dt * rate, 0.0)
        end = config.n_cells - int(np.argmax((u + x)[::-1] != 0.0))  # n if all are 0
        k = min(end + _NEWTON_CAP + 2, config.n_cells)
        xk, uk, vk, off, dt_sum = x[:k], u[:k], vol[:k], off[:k - 1], dt_sum[:k]
        v, dphi, res, diag, up = (a[:k] for a in work)
        v_lo, v_hi, dphi_lo, dphi_hi, up_lo = v[:-1], v[1:], dphi[:-1], dphi[1:], up[:-1]
        flux_in, flux_out, flux_inner = flux[:k], flux[1:k + 1], flux[1:k]
        flux[k] = 0.0  # no flux between the empty cells k - 1 and k
        for _ in range(_NEWTON_CAP):
            # v = max(x, 0)^m and dphi = m max(x, 0)^(m-1), with the operators' fast paths
            np.maximum(xk, 0.0, out=v)
            v **= m
            np.maximum(xk, 0.0, out=dphi)
            dphi **= m - 1.0
            dphi *= m
            np.subtract(v_hi, v_lo, out=flux_inner)
            flux_inner *= off
            np.subtract(xk, uk, out=res)  # res = vol (x - u) + flux out - flux in
            res *= vk
            res += flux_out
            res -= flux_in
            np.multiply(dt_sum, dphi, out=diag)
            diag += vk
            np.abs(res, out=v)
            v /= diag
            if np.maximum.reduce(v) <= tol:  # false on a non-finite state
                if x.min() < -1e-10 * max(sup0, 1.0):
                    raise StabilityFailure(f"negative state at t = {t_new:.6g}")
                return np.maximum(x, 0.0)
            np.multiply(off, dphi_lo, out=v_lo)
            np.multiply(off, dphi_hi, out=up_lo)
            # sub-, main and super-diagonal and the residual are all recomputed
            # in the next iteration, so LAPACK may overwrite them: res becomes the step
            if solve(k):
                raise StabilityFailure(f"singular Newton system at t = {t_new:.6g}")
            xk -= res
            iterations += 1
        raise StabilityFailure(
            f"Newton did not converge in {_NEWTON_CAP} iterations at t = {t_new:.6g}")

    dt0 = float(np.min(vol / cond_sum)) / (m * sup0 ** (m - 1.0)) if sup0 > 0 else config.t_end
    states = [snapshot(0.0)]
    reason, t, steps, rate = None, 0.0, 0, 0.0
    for t_next in out_t[1:]:
        while t < t_next and reason is None:
            dt = max(dt0, _GROWTH * t) if config.dt_fixed is None else config.dt_fixed
            t_new = min(t + dt, t_next)
            u_new = backward_euler(t_new)
            while u_new[-2:].max() > thr:  # past the guard: retake with half the step
                t_new = t + 0.5 * (t_new - t)
                u_new = backward_euler(t_new)
            rate = (u_new - u) / (t_new - t)
            u, t, steps = u_new, t_new, steps + 1
            reason = "support-reached-boundary" if u[-3] > thr else None
        states.append(snapshot(t))
        if reason is not None:
            break
    return PMERun(r_centers=centers, r_faces=faces, states=states,
                  stopped_early=reason is not None, stop_reason=reason, steps=steps,
                  newton_iterations=iterations)


# ---------------------------------------------------------------------------
# decay-law fitting
# ---------------------------------------------------------------------------

def smoothing_exponent(N: float, m: float) -> float:
    """Sup-norm decay exponent N / (N (m - 1) + 2) in (effective) dimension N."""
    return N / (N * (m - 1.0) + 2.0)


def log_correction_exponent(beta: float, m: float) -> float:
    if not (0.0 <= beta < 2.0) or m <= 1.0:
        raise ParameterOutOfRange("need beta in [0,2) and m > 1")
    return (2.0 + beta) / ((m - 1.0) * (2.0 - beta))


@dataclass
class SmoothingFit:
    power_exponent: float
    log_correction_exponent: float
    K_fit: float
    window: tuple
    residual_rms: float
    n_points: int


def _fit_series(states, window):
    t = np.array([s.t for s in states])
    sup = np.array([s.sup for s in states])
    keep = (t > 0) & (sup > 0)
    t, sup = t[keep], sup[keep]
    if window is None:
        smax = float(np.max(sup))
        decayed = np.flatnonzero(sup < 0.95 * smax)
        if decayed.size == 0:
            raise InsufficientWindow("sup norm has not started decaying")
        t_lo = max(t[decayed[0]], t[-1] / 10 ** 2)
        window = (t_lo, float(t[-1]))
    sel = (t >= window[0]) & (t <= window[1])
    t, sup = t[sel], sup[sel]
    if len(t) < 5 or t[-1] < 10 ** 1.5 * t[0] * (1 - 1e-9):
        raise InsufficientWindow(
            f"window {window} spans less than 1.5 decades of usable data")
    return t, sup, window


def fit_smoothing(states, model_class: str = "power_only", m: Optional[float] = None,
                  beta: Optional[float] = None, mass: Optional[float] = None,
                  window: Optional[tuple] = None) -> SmoothingFit:
    """Least-squares decay law of the sup norm in log coordinates.

    ``power_only`` fits a free slope; ``power_with_log`` pins the slope to
    -1/(m-1) and the log-factor exponent to its analytic value, fitting the
    amplitude alone.
    """
    if model_class not in ("power_only", "power_with_log"):
        raise ValidationError(f"unknown model class {model_class!r}")
    if model_class == "power_with_log" and (m is None or beta is None):
        raise ValidationError("power_with_log needs m and beta")
    t, sup, window = _fit_series(states, window)
    lt, ls = np.log(t), np.log(sup)
    if model_class == "power_only":
        slope, icpt, residual = _line_fit(lt, ls)
        return SmoothingFit(power_exponent=slope, log_correction_exponent=0.0,
                            K_fit=math.exp(icpt), window=window, residual_rms=residual,
                            n_points=len(t))
    mass = 1.0 if mass is None else float(mass)
    gamma = log_correction_exponent(beta, m)
    lll = np.log(np.log(t * mass ** (m - 1.0) + math.e))
    base = -lt / (m - 1.0)
    icpt = float(np.mean(ls - base - gamma * lll))
    residual = math.sqrt(np.mean((ls - (base + gamma * lll + icpt)) ** 2))
    return SmoothingFit(power_exponent=-1.0 / (m - 1.0),
                        log_correction_exponent=float(gamma),
                        K_fit=math.exp(icpt), window=window, residual_rms=residual,
                        n_points=len(t))


# ---------------------------------------------------------------------------
# analytic envelopes
# ---------------------------------------------------------------------------

def reference_curves(beta: float, m: float, K: float, u0_mass: float, t_list):
    """Upper decay envelope K [log(t mass^(m-1) + e)]^gamma t^(-1/(m-1))."""
    gamma = log_correction_exponent(beta, m)
    t = np.asarray(t_list, float)
    if np.any(t <= 0):
        raise ParameterOutOfRange("upper envelope is defined for t > 0 only")
    return K * np.log(t * u0_mass ** (m - 1.0) + math.e) ** gamma * t ** (-1.0 / (m - 1.0))


def lower_curve(Khat: float, beta: float, m: float, t_list):
    """Lower envelope [Khat (log t)^((2+beta)/(2-beta)) / t]^(1/(m-1)), t > 1."""
    if not (0.0 <= beta < 2.0) or m <= 1.0:
        raise ParameterOutOfRange("need beta in [0,2) and m > 1")
    t = np.asarray(t_list, float)
    if np.any(t <= 1.0):
        raise ParameterOutOfRange("lower envelope is defined for t > 1 only")
    return (Khat * np.log(t) ** ((2.0 + beta) / (2.0 - beta)) / t) ** (1.0 / (m - 1.0))


def fit_envelopes(states, beta: float, m: float, mass: float, window=None):
    """Amplitudes (K_upper, K_lower) making the envelopes sandwich the data."""
    t, sup, window = _fit_series(states, window)
    up_shape = reference_curves(beta, m, 1.0, mass, t)
    K_up = float(np.max(sup / up_shape))
    tt = t[t > 1.0]
    ss = sup[t > 1.0]
    if tt.size == 0:
        raise InsufficientWindow("no data past t = 1 for the lower envelope")
    K_lo = float(np.min(ss ** (m - 1.0) * tt / np.log(tt) ** ((2.0 + beta) / (2.0 - beta))))
    return K_up, K_lo, window
