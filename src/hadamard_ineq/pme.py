"""Radial porous-medium flow u_t = Laplacian(u^m) on a model geometry.

Conservative finite volumes for the reduced one-dimensional form

    u_t = psi^(1-N) ( psi^(N-1) (u^m)_r )_r ,

backward-Euler time stepping with Newton on the tridiagonal Jacobian, and
decay-law fitting of the sup norm against the two analytic envelopes
(power decay with and without a logarithmic correction).  The scheme is
monotone at any step: mass is conserved to rounding while the support stays
interior, the sup norm never increases, and ordered data stay ordered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import (
    InsufficientWindow,
    ParameterOutOfRange,
    StabilityFailure,
    ValidationError,
)
from .geometry import ModelFunction
from .weighted import _gl5, sobolev_critical, unit_sphere_area

__all__ = [
    "Characteristic",
    "GaussianLike",
    "CustomTable",
    "PMEConfig",
    "PMEState",
    "PMERun",
    "SmoothingFit",
    "MoserChain",
    "pme_run",
    "fit_smoothing",
    "reference_curves",
    "lower_curve",
    "fit_envelopes",
    "moser_chain_constant",
    "smoothing_exponent",
    "quasi_smoothing_exponent",
]

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Characteristic:
    r_support: float
    height: float = 1.0


@dataclass(frozen=True)
class GaussianLike:
    scale: float
    height: float = 1.0


@dataclass(frozen=True)
class CustomTable:
    r: np.ndarray
    u: np.ndarray


InitialDatum = Union[Characteristic, GaussianLike, CustomTable]

_GROWTH = 0.02  # steps are max(dt0, _GROWTH t), dt0 the explicit stability limit of u0
_NEWTON_TOL = 1e-13  # residual over the Jacobian diagonal, relative to sup u before the step
_NEWTON_CAP = 30
_SUPPORT_THRESHOLD = 1e-12  # u at or below this fraction of sup u0 lies outside the support


@dataclass
class PMEConfig:
    m: float
    model: ModelFunction
    R_domain: float
    initial: InitialDatum
    t_end: float
    output_times: Optional[np.ndarray] = None
    n_cells: int = 800
    dt_fixed: Optional[float] = None

    def __post_init__(self):
        if self.m <= 1.0:
            raise ValidationError(f"need m > 1, got {self.m}")
        if not (0 < self.R_domain <= self.model.Rmax * (1 + 1e-12)):
            raise ValidationError("R_domain must lie in (0, Rmax]")
        if self.t_end <= 0:
            raise ValidationError("t_end must be positive")
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
    config: PMEConfig
    r_centers: np.ndarray
    r_faces: np.ndarray
    states: list
    stopped_early: bool
    stop_reason: Optional[str]
    steps: int
    newton_iterations: int


def _initial_values(initial: InitialDatum, centers: np.ndarray) -> np.ndarray:
    if isinstance(initial, Characteristic):
        if initial.r_support <= 0 or initial.height <= 0:
            raise ValidationError("characteristic datum needs positive size and height")
        return np.where(centers <= initial.r_support, initial.height, 0.0)
    if isinstance(initial, GaussianLike):
        if initial.scale <= 0 or initial.height <= 0:
            raise ValidationError("gaussian-like datum needs positive scale and height")
        u = initial.height * np.exp(-((centers / initial.scale) ** 2))
        return np.where(u > 1e-14 * initial.height, u, 0.0)
    if isinstance(initial, CustomTable):
        u = np.interp(centers, np.asarray(initial.r, float),
                      np.asarray(initial.u, float), left=None, right=0.0)
        if np.any(u < 0):
            raise ValidationError("custom datum must be nonnegative")
        return u
    raise ValidationError(f"unknown initial datum {initial!r}")


def _support_edge(u, faces, threshold):
    live = np.flatnonzero(u > threshold)
    return float(faces[live[-1] + 1]) if live.size else 0.0


def pme_run(config: PMEConfig) -> PMERun:
    """Advance the flow by backward Euler and emit snapshots at the output times.

    Stops early (flagged, not raised) once the support reaches the guard two
    cells inside the outer boundary: states past it would be polluted by the wall.
    """
    model, m = config.model, config.m
    faces = np.linspace(0.0, config.R_domain, config.n_cells + 1)
    dx = faces[1] - faces[0]
    centers = 0.5 * (faces[:-1] + faces[1:])

    # cell volumes int w dr and face conductivities w(face)/dx
    w = lambda s: np.exp((model.N - 1.0) * np.asarray(model.logpsi(s), float))
    vol = _gl5(w, centers, 0.5 * dx)
    cond = w(faces[1:-1]) / dx  # interior faces only; flux vanishes at r = 0 and the wall
    cond_sum = np.append(cond, 0.0) + np.insert(cond, 0, 0.0)

    u = _initial_values(config.initial, centers)
    sup0 = float(np.max(u))
    thr = _SUPPORT_THRESHOLD * sup0
    if _support_edge(u, faces, thr) > config.R_domain / 2 + dx:
        raise ValidationError("initial datum must be supported in [0, R_domain/2]")

    out_t = config.output_times
    if out_t is None:
        out_t = np.geomspace(config.t_end * 1e-4, config.t_end, 60)
    out_t = np.unique(np.append(np.asarray(out_t, float), 0.0))
    if out_t[-1] > config.t_end:
        raise ValidationError("output times exceed t_end")

    def snapshot(t):
        return PMEState(t=float(t), u=u.copy(),
                        mass=unit_sphere_area(model.N) * float(u @ vol),
                        sup=float(np.max(u)) if u.size else 0.0,
                        support_edge=_support_edge(u, faces, thr))

    flux = np.zeros(config.n_cells + 1)
    iterations = 0

    def backward_euler(t_new):
        """Newton from the state u at t to t_new, starting from the last rate."""
        nonlocal iterations
        dt = t_new - t
        off, dt_sum, tol = -dt * cond, dt * cond_sum, _NEWTON_TOL * u.max()
        x = np.maximum(u + dt * rate, 0.0)
        for _ in range(_NEWTON_CAP):
            xp = np.maximum(x, 0.0)
            v, dphi = xp ** m, m * xp ** (m - 1.0)
            flux[1:-1] = off * (v[1:] - v[:-1])
            res = vol * (x - u) + flux[1:] - flux[:-1]
            diag = vol + dt_sum * dphi
            if (np.abs(res) / diag).max() <= tol:  # false on a non-finite state
                if x.min() < -1e-10 * max(sup0, 1.0):
                    raise StabilityFailure(f"negative state at t = {t_new:.6g}")
                return np.maximum(x, 0.0)
            # sub-, main and super-diagonal; every input is fresh, so LAPACK may overwrite it
            *_, step, info = dgtsv(off * dphi[:-1], diag, off * dphi[1:], res, 1, 1, 1, 1)
            if info:
                raise StabilityFailure(f"singular Newton system at t = {t_new:.6g}")
            x = x - step
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
    return PMERun(config=config, r_centers=centers, r_faces=faces, states=states,
                  stopped_early=reason is not None, stop_reason=reason, steps=steps,
                  newton_iterations=iterations)


# ---------------------------------------------------------------------------
# decay-law fitting
# ---------------------------------------------------------------------------

def smoothing_exponent(N: int, m: float) -> float:
    """Flat-space sup-norm decay exponent N / (N (m - 1) + 2)."""
    return N / (N * (m - 1.0) + 2.0)


def quasi_smoothing_exponent(ntilde: float, m: float) -> float:
    """Same law with the effective dimension of a quasi-Euclidean geometry."""
    return ntilde / (ntilde * (m - 1.0) + 2.0)


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
    amplitude alone; ``power_with_log_free`` also frees the log exponent
    (diagnostic only: the two-parameter fit is ill conditioned).
    """
    t, sup, window = _fit_series(states, window)
    lt, ls = np.log(t), np.log(sup)
    if model_class == "power_only":
        slope, icpt = np.polyfit(lt, ls, 1)
        resid = ls - (slope * lt + icpt)
        return SmoothingFit(power_exponent=float(slope), log_correction_exponent=0.0,
                            K_fit=float(math.exp(icpt)), window=window,
                            residual_rms=float(np.sqrt(np.mean(resid ** 2))),
                            n_points=len(t))
    if model_class in ("power_with_log", "power_with_log_free"):
        if m is None or beta is None:
            raise ValidationError("power_with_log needs m and beta")
        mass = 1.0 if mass is None else float(mass)
        gamma = log_correction_exponent(beta, m)
        lll = np.log(np.log(t * mass ** (m - 1.0) + math.e))
        base = -lt / (m - 1.0)
        if model_class == "power_with_log_free":
            gamma, icpt = np.polyfit(lll, ls - base, 1)
        else:
            icpt = float(np.mean(ls - base - gamma * lll))
        resid = ls - (base + gamma * lll + icpt)
        return SmoothingFit(power_exponent=-1.0 / (m - 1.0),
                            log_correction_exponent=float(gamma),
                            K_fit=float(math.exp(icpt)), window=window,
                            residual_rms=float(np.sqrt(np.mean(resid ** 2))),
                            n_points=len(t))
    raise ValidationError(f"unknown model class {model_class!r}")


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


# ---------------------------------------------------------------------------
# iteration-constant audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MoserChain:
    c_sigma: float
    bracket: float
    bracket_exponent: float
    bounded_factor: float
    t_exponent: float


def moser_chain_constant(sigma: float, sigma0: float, q: float, m: float,
                         beta: float, C: float, N: Optional[int] = None) -> MoserChain:
    """Explicit constants of one smoothing-iteration step.

    Evaluates the embedding constant at exponent p = 2 sigma, the bracketed
    prefactor of the integrated differential inequality, the composed time
    exponent after combining with the base smoothing estimate at sigma0,
    and the product of all factors that must stay bounded once the
    substitutions q = log(t+e), sigma = 1 + (sigma0-1)/log(t+e) are made;
    the remaining unbounded piece is exactly the logarithmic correction.
    The time exponent tends to -1/(m-1) under the same substitutions.
    """
    if m <= 1.0 or not (0.0 <= beta < 2.0) or C <= 0:
        raise ParameterOutOfRange("need m > 1, beta in [0,2), C > 0")
    if q <= 0:
        raise ParameterOutOfRange("need q > 0")
    if not (1.0 < sigma < sigma0):
        raise ParameterOutOfRange(f"need 1 < sigma < sigma0, got sigma={sigma}, sigma0={sigma0}")
    if N is not None and sigma0 >= sobolev_critical(N) / 2.0:
        raise ParameterOutOfRange("sigma0 must stay below half the critical exponent")
    p = 2.0 * sigma
    c_sigma = C * p ** ((2.0 + beta) / (2.0 * (2.0 - beta))) / (p - 2.0) ** (beta / (2.0 - beta))
    core = sigma * (q + m) ** 2 / (4.0 * m * (q + 1.0) * (sigma * m - 1.0))
    bracket = core * c_sigma ** 2
    bracket_exponent = sigma * q / ((q + 1.0) * (sigma * m - 1.0))
    denom = (sigma0 - 1.0) * (q + 1.0) + sigma0 * (m - 1.0)
    smear = sigma * m - 1.0
    e_shared = sigma * (sigma0 * m - 1.0) / (smear * denom)
    t_exp = -(sigma0 * smear + sigma * q * (sigma0 - 1.0)) / (smear * denom)
    # bounded pieces: bracket^(-e_shared) * (core/q)^(sigma/smear) * t^(drift)
    t_eff = max(math.exp(q) - math.e, 0.0)
    drift = (sigma0 - sigma) / (smear * denom)
    bounded = bracket ** (-e_shared) * (core / q) ** (sigma / smear)
    if t_eff > 0.0:
        bounded *= t_eff ** drift
    return MoserChain(c_sigma=c_sigma, bracket=bracket,
                      bracket_exponent=bracket_exponent,
                      bounded_factor=bounded, t_exponent=t_exp)
