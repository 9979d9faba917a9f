"""One-dimensional weighted-inequality machinery for the weight w = psi^(N-1).

Central objects: the cumulative integral W(r) of w, the tail integral T(r)
of 1/w (finished off past the sampled range by the T(Rmax) of
:func:`geometry.tail_past_rmax`), the product

    Q(r) = W(r)^(1/p) * T(r)^(1/2),

and its global supremum B(w, p).  Finiteness of B is equivalent to the
weighted embedding (int |g|^p w)^(1/p) <= C (int |g'|^2 w)^(1/2) over
compactly supported g, and the best constant C is enclosed in

    B <= C <= (1 + p/2)^(1/p) * (1 + 2/p)^(1/2) * B .

Divergence of B is a reported value, never an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    BelowCriticalExponent,
    DivergentPoint,
    InvalidExponent,
    ValidationError,
)
from .geometry import ModelFunction, PowerLaw, TailModel, tail_past_rmax

__all__ = [
    "WeightMeasure",
    "TailModel",
    "SupremumReport",
    "RegressionFit",
    "build_weight",
    "Q_at",
    "supremum_B",
    "sandwich",
    "sandwich_factor",
    "lemma41_bound",
    "lemma42_bound",
    "lemma42_constants",
    "critical_exponents",
    "mckean_bounds",
    "scaling_regression",
    "near_extremal",
    "plin_norms",
    "sobolev_critical",
    "unit_sphere_area",
]

GL5_NODES, GL5_WEIGHTS = np.polynomial.legendre.leggauss(5)
# the two hat functions of the reference element [-1, 1] at its Gauss nodes
_PHI_L, _PHI_R = 0.5 * (1.0 - GL5_NODES), 0.5 * (1.0 + GL5_NODES)


def _gl5(f, mid, half):
    """5-point Gauss-Legendre of f over [mid - half, mid + half], elementwise.

    f is called once, on the nodes stacked along a new leading axis.
    """
    nodes = mid + half * GL5_NODES.reshape((5,) + (1,) * np.broadcast(mid, half).ndim)
    acc = np.zeros_like(mid)
    for w, row in zip(GL5_WEIGHTS, f(nodes)):
        acc = acc + w * row
    return acc * half


def unit_sphere_area(N: int) -> float:
    """Surface area of the unit sphere in R^N."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


def sobolev_critical(N: int) -> float:
    """2N/(N-2) for N >= 3, infinity for N = 2."""
    return math.inf if N <= 2 else 2.0 * N / (N - 2.0)


# ---------------------------------------------------------------------------
# the weight object
# ---------------------------------------------------------------------------

def _gl5_between(f, lo, hi):
    """Vectorized 5-point Gauss-Legendre of f over [lo, hi] (elementwise)."""
    return _gl5(f, 0.5 * (lo + hi), 0.5 * (hi - lo))


@dataclass
class WeightMeasure:
    """Tabulated W(r) and T(r) for the weight psi^(N-1) of a model."""

    model: ModelFunction
    rgrid: np.ndarray
    Wtab: np.ndarray
    Ttab: np.ndarray
    tail: TailModel

    @property
    def N(self):
        return self.model.N

    @property
    def Rmax(self):
        return self.model.Rmax

    def w_at(self, r):
        return np.exp((self.N - 1.0) * np.asarray(self.model.logpsi(r), float))

    def ball_volume(self, r):
        """Volume of the ball of radius r (the angular factor enters only here)."""
        return unit_sphere_area(self.N) * self.W_at(r)

    def winv_at(self, r):
        return np.exp(-(self.N - 1.0) * np.asarray(self.model.logpsi(r), float))

    def W_at(self, r):
        """Cumulative integral of w from 0, exact node values plus a local
        Gauss increment so that dW/dr matches w to quadrature accuracy."""
        r = np.asarray(r, float)
        i = np.clip(np.searchsorted(self.rgrid, r, side="right") - 1,
                    0, len(self.rgrid) - 1)
        return self.Wtab[i] + _gl5_between(self.w_at, self.rgrid[i], r)

    def T_at(self, r):
        r = np.asarray(r, float)
        if self.tail.family == "divergent":
            return np.full_like(r, math.inf)
        j = np.clip(np.searchsorted(self.rgrid, r, side="left"),
                    1, len(self.rgrid) - 1)
        return self.Ttab[j] + _gl5_between(self.winv_at, r, self.rgrid[j])


def build_weight(model: ModelFunction) -> WeightMeasure:
    """Tabulate W and T on the model grid, T finished by the analytic tail."""
    N = model.N
    y_end = float(model.logpsi(np.float64(model.Rmax)))
    if (N - 1) * y_end > 700.0:
        raise ValidationError(
            "weight overflows float64 at Rmax; reduce Rmax or the curvature scale")
    tail, t_end = tail_past_rmax(model)
    rg = model.grid_r
    w_seg = _gl5_between(lambda s: np.exp((N - 1.0) * np.asarray(model.logpsi(s), float)),
                         rg[:-1], rg[1:])
    Wtab = np.concatenate([[0.0], np.cumsum(w_seg)])
    if tail.family == "divergent":
        Ttab = np.full_like(Wtab, math.inf)
    else:
        tin_seg = _gl5_between(lambda s: np.exp(-(N - 1.0) * np.asarray(model.logpsi(s), float)),
                               rg[1:-1], rg[2:])
        Ttab = np.concatenate([[math.inf],
                               t_end + np.concatenate([np.cumsum(tin_seg[::-1])[::-1], [0.0]])])
    return WeightMeasure(model=model, rgrid=rg, Wtab=Wtab, Ttab=Ttab, tail=tail)


# ---------------------------------------------------------------------------
# the supremum and its report
# ---------------------------------------------------------------------------

def _log_Q(weight: WeightMeasure, p: float, r):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(weight.W_at(r)) / p + 0.5 * np.log(weight.T_at(r))


def Q_at(weight: WeightMeasure, p: float, r):
    """W(r)^(1/p) T(r)^(1/2); infinite when the tail diverges."""
    if p <= 0:
        raise InvalidExponent(f"exponent must be positive, got {p}")
    r = np.asarray(r, float)
    if weight.tail.family == "divergent":
        return np.full_like(r, math.inf)
    return np.exp(_log_Q(weight, p, r))


def _limit_infinity(weight: WeightMeasure, p: float) -> float:
    N, tail = weight.N, weight.tail
    if tail.family == "divergent":
        return math.inf
    if tail.family == "exponential":
        if p > 2.0:
            return 0.0
        if tail.shape >= 1.0 - 1e-12:
            lam = (N - 1.0) * tail.rate
            return 1.0 / lam if abs(p - 2.0) <= 1e-12 else math.inf
        return math.inf  # stretched exponential, p <= 2
    g = tail.shape * (N - 1.0)
    e_q = (g + 1.0) / p - (g - 1.0) / 2.0
    if e_q > 1e-12:
        return math.inf
    if e_q < -1e-12:
        return 0.0
    amp = tail.amplitude
    return amp ** ((N - 1.0) * (1.0 / p - 0.5)) * (g + 1.0) ** (-1.0 / p) * (g - 1.0) ** -0.5


def _limit_zero(N: int, p: float) -> float:
    crit = sobolev_critical(N)
    if not math.isfinite(crit):
        return 0.0
    if p < crit - 1e-12:
        return 0.0
    if p > crit + 1e-12:
        return math.inf
    return N ** (-1.0 / p) * (N - 2.0) ** -0.5


@dataclass
class SupremumReport:
    """Outcome of the global search for B(w, p)."""

    p: float
    B: float
    r_bar: Optional[float]
    at_infinity: bool
    divergent: bool
    sandwich_upper: float
    crit_residual: Optional[float]
    search_trace: dict = field(default_factory=dict)

    @property
    def sandwich(self):
        return (self.B, self.sandwich_upper)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_N_SCAN = 512  # log-spaced points of the coarse scan that brackets the maxima of Q


def _golden_max_all(f, a, b, tol):
    """Golden-section maxima of f on the brackets [a, b] (updated in place),
    refined in lockstep: each step calls f once on the open brackets.  A
    bracket closes when b - a <= tol max(1, |a| + |b|) or after 301 calls."""
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = np.split(f(np.concatenate([x1, x2])), 2)
    n = np.full(len(a), 2)
    while True:
        k = np.flatnonzero((n <= 300) & ((b - a) > tol * np.maximum(1.0, abs(a) + abs(b))))
        if len(k) == 0:
            break
        up = f1[k] < f2[k]
        ku, kd = k[up], k[~up]
        # rising: drop [a, x1], the old x2 becomes x1; falling: mirror image
        a[ku], x1[ku], f1[ku] = x1[ku], x2[ku], f2[ku]
        x2[ku] = a[ku] + _GOLDEN * (b[ku] - a[ku])
        b[kd], x2[kd], f2[kd] = x2[kd], x1[kd], f1[kd]
        x1[kd] = b[kd] - _GOLDEN * (b[kd] - a[kd])
        fk = f(np.where(up, x2[k], x1[k]))
        f2[ku], f1[kd] = fk[up], fk[~up]
        n[k] += 1
    return 0.5 * (a + b), np.where(f2 > f1, f2, f1), n


def supremum_B(weight: WeightMeasure, p: float, refine_tol: float = 1e-10) -> SupremumReport:
    """Global supremum of Q over (0, infinity).

    Coarse log-spaced scan, golden-section refinement of every interior
    bracket, plus the analytic limits at 0 and infinity from the tail
    classification.  Divergence is reported, not raised.
    """
    if p <= 0:
        raise InvalidExponent(f"exponent must be positive, got {p}")
    upper_factor = sandwich_factor(p)
    lim_inf = _limit_infinity(weight, p)
    lim_zero = _limit_zero(weight.N, p)
    if math.isinf(lim_inf) or math.isinf(lim_zero):
        at_inf = math.isinf(lim_inf) and weight.tail.family != "divergent"
        return SupremumReport(p=p, B=math.inf, r_bar=None, at_infinity=at_inf,
                              divergent=True, sandwich_upper=math.inf, crit_residual=None,
                              search_trace={"evaluations": 0, "refinement_depth": 0})

    pts = np.geomspace(weight.rgrid[1], weight.Rmax, _N_SCAN)
    lq = _log_Q(weight, p, pts)
    lq = np.where(np.isnan(lq), -math.inf, lq)

    def libm(fn, x):
        # math.exp/math.log per element: numpy's vector exp and log may differ
        # in the last bit, and on a plateau of Q that moves the maximizer
        return np.fromiter(map(fn, x), float, len(x))

    best_val, best_r = -math.inf, None
    peaks = 1 + np.flatnonzero((lq[1:-1] >= lq[:-2]) & (lq[1:-1] >= lq[2:]))
    peaks = peaks[np.isfinite(lq[peaks])]
    x, v, n = _golden_max_all(lambda s: _log_Q(weight, p, libm(math.exp, s)),
                              libm(math.log, pts[peaks - 1]), libm(math.log, pts[peaks + 1]),
                              refine_tol)
    if len(v):
        k = int(np.argmax(np.where(np.isnan(v), -math.inf, v)))  # first of equal maxima
        if v[k] > best_val:
            best_val, best_r = float(v[k]), math.exp(x[k])
    evals, depth = _N_SCAN + int(n.sum()), int(n.max(initial=0))
    for i in (0, _N_SCAN - 1):
        if lq[i] > best_val:
            best_val, best_r = lq[i], float(pts[i])

    B_interior = math.exp(best_val) if best_r is not None else 0.0
    B = max(B_interior, lim_inf, lim_zero)
    at_infinity = lim_inf >= B_interior and lim_inf >= lim_zero and lim_inf == B
    r_bar = crit_res = None
    if not at_infinity and lim_zero == B and lim_zero > B_interior:
        r_bar = 0.0
    elif not at_infinity:
        r_bar = best_r
        lnW = float(np.log(weight.W_at(np.float64(r_bar))))
        lnT = float(np.log(weight.T_at(np.float64(r_bar))))
        lnrhs = math.log(p / 2.0) + lnW - 2.0 * (weight.N - 1.0) * float(
            weight.model.logpsi(np.float64(r_bar)))
        crit_res = abs(1.0 - math.exp(lnrhs - lnT))
        # at a genuine boundary maximizer the stationarity identity is void
        if (r_bar <= pts[0] * (1 + 1e-9)) or (r_bar >= pts[-1] * (1 - 1e-9)):
            crit_res = None
    return SupremumReport(p=p, B=B, r_bar=r_bar, at_infinity=at_infinity,
                          divergent=False, sandwich_upper=upper_factor * B,
                          crit_residual=crit_res,
                          search_trace={"evaluations": evals, "refinement_depth": depth})


def sandwich_factor(p: float) -> float:
    if p <= 0:
        raise InvalidExponent(f"exponent must be positive, got {p}")
    return (1.0 + p / 2.0) ** (1.0 / p) * (1.0 + 2.0 / p) ** 0.5


def sandwich(B: float, p: float):
    """Two-sided enclosure of the best embedding constant from B."""
    if not math.isfinite(B):
        raise ValidationError("sandwich needs a finite B")
    return (B, sandwich_factor(p) * B)


# ---------------------------------------------------------------------------
# explicit proof-chain bounds
# ---------------------------------------------------------------------------

def lemma41_bound(N: int, alpha: float, c: float, r0: float, p: float) -> float:
    """Explicit upper bound for B under psi'/psi >= c r^(-alpha) past r0.

    Valid for p in the open interval (2, 2*); blows up like
    (p-2)^(-alpha/(1-alpha)) as p decreases to 2.
    """
    if not (0.0 < alpha < 1.0):
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    if c <= 0 or r0 <= 0:
        raise ValidationError("c and r0 must be positive")
    crit = sobolev_critical(N)
    if not (2.0 < p < crit):
        raise InvalidExponent(f"p must lie in (2, {crit}), got {p}")
    cn = c * (N - 1.0)
    a_frac = alpha / (1.0 - alpha)
    head_exp = 4.0 if N == 2 else (N - 2.0) * (crit - p)
    sup_head = r0 ** (head_exp / (2.0 * p))
    bracket = (
        r0 ** (head_exp / (p + 2.0))
        + (alpha * (p + 2.0)) ** a_frac / (cn ** (1.0 / (1.0 - alpha)) * (p - 2.0) ** a_frac)
        * r0 ** (-(N - 1.0) * (p - 2.0) / (p + 2.0))
        * math.exp(cn * (p - 2.0) / ((p + 2.0) * (1.0 - alpha)) * r0 ** (1.0 - alpha) - a_frac)
    )
    sup_tail = bracket ** ((p + 2.0) / (2.0 * p))
    return math.sqrt(p / 2.0) * max(sup_head, sup_tail)


def lemma42_bound(N: int, c: float, cprime: float, q: float, r0: float, p: float) -> float:
    """Explicit upper bound for B under psi'/psi >= c/r - c'/r^q past r0.

    Applies from the critical exponent 2*Ntilde/(Ntilde-2) upward, where
    Ntilde = c (N-1) + 1; the bound grows like sqrt(p).
    """
    if c <= 1.0:
        raise ValidationError(f"need c > 1, got {c}")
    if cprime <= 0 or q <= 1.0 or r0 <= 0:
        raise ValidationError("need cprime > 0, q > 1, r0 > 0")
    ntilde = c * (N - 1.0) + 1.0
    p_low = 2.0 * ntilde / (ntilde - 2.0)
    crit = sobolev_critical(N)
    if p < p_low - 1e-12:
        raise BelowCriticalExponent(f"p = {p} below threshold {p_low}")
    if p >= crit:
        raise InvalidExponent(f"p must lie in [{p_low}, {crit}), got {p}")
    r_hat = max(r0, (2.0 * cprime / (c - 1.0)) ** (1.0 / (q - 1.0)))
    kappa = r0 ** (1.0 - c) * math.exp(-cprime * r0 ** (1.0 - q) / (q - 1.0))
    head_exp = 4.0 if N == 2 else (N - 2.0) * (crit - p)
    sup_head = r_hat ** (head_exp / (2.0 * p))
    bracket = (
        r_hat ** (head_exp / (p + 2.0))
        + 2.0 * kappa ** (-(N - 1.0) * (p - 2.0) / (p + 2.0))
        * r_hat ** (1.0 - c * (N - 1.0) * (p - 2.0) / (p + 2.0))
        / ((c + 1.0) * (N - 1.0))
    )
    sup_tail = bracket ** ((p + 2.0) / (2.0 * p))
    return math.sqrt(p / 2.0) * max(sup_head, sup_tail)


def lemma42_constants(model: ModelFunction):
    """(c, cprime, q, r0) certified for the quadratic law K = c0 r^(-2),
    read from the two-power glue of a :class:`PowerLaw` at beta = 2."""
    prof = model.profile
    if not (isinstance(prof, PowerLaw) and prof.beta == 2.0):
        raise ValidationError("constants derive from a power law at beta = 2")
    glue = prof.exact
    h = (glue.q1 - glue.q2) * max(glue.a2, 0.0) / glue.a1
    if h == 0.0:
        h = 1e-12
    return glue.q1, h, 1.0 + (glue.q1 - glue.q2), prof.r0


def critical_exponents(N: int, C1: float):
    """(Ntilde, 2tilde): effective dimension and threshold exponent."""
    if C1 <= 0 or N < 2:
        raise ValidationError("need C1 > 0 and N >= 2")
    ntilde = (N + 1.0 + math.sqrt(1.0 + 4.0 * C1) * (N - 1.0)) / 2.0
    return ntilde, 2.0 * ntilde / (ntilde - 2.0)


def mckean_bounds(N: int, k: float):
    """(supremum bound, Poincare constant, spectral gap) for curvature <= -k."""
    if k <= 0 or N < 2:
        raise ValidationError("need k > 0 and N >= 2")
    sk = math.sqrt(k)
    return (1.0 / (sk * (N - 1.0)),
            2.0 / (sk * (N - 1.0)),
            k * (N - 1.0) ** 2 / 4.0)


# ---------------------------------------------------------------------------
# sweeps and regression
# ---------------------------------------------------------------------------

@dataclass
class RegressionFit:
    slope: float
    intercept: float
    p_values: np.ndarray
    B_values: np.ndarray
    residual_rms: float


def scaling_regression(reports, mode: str) -> RegressionFit:
    """Least-squares exponent of B(p) against the appropriate abscissa.

    Fits the given ``SupremumReport``s, ordered by p, and searches nothing
    itself.  Mode 'p_to_2' regresses log B on log(p - 2); mode 'p_large'
    on log p.
    """
    if mode not in ("p_to_2", "p_large"):
        raise ValidationError(f"unknown regression mode {mode!r}")
    if len(reports) < 5:
        raise ValidationError("need at least 5 exponents in the regression")
    reports = sorted(reports, key=lambda rep: rep.p)
    p_values = np.array([rep.p for rep in reports], float)
    B = np.array([rep.B for rep in reports], float)
    if np.any(~np.isfinite(B)):
        bad = p_values[~np.isfinite(B)]
        raise DivergentPoint(f"B diverges at p = {bad.tolist()}")
    if mode == "p_to_2":
        if np.any(p_values <= 2.0):
            raise ValidationError("mode p_to_2 needs p > 2 throughout")
        x = np.log(p_values - 2.0)
    else:
        x = np.log(p_values)
    slope, intercept = np.polyfit(x, np.log(B), 1)
    resid = np.log(B) - (slope * x + intercept)
    return RegressionFit(slope=float(slope), intercept=float(intercept),
                         p_values=p_values, B_values=B,
                         residual_rms=float(np.sqrt(np.mean(resid ** 2))))


# ---------------------------------------------------------------------------
# explicit test functions
# ---------------------------------------------------------------------------

def near_extremal(weight: WeightMeasure, report: SupremumReport):
    """Piecewise-linear function nearly attaining the B of ``report``, a
    ``supremum_B(weight, p)`` result; nothing is searched here.

    Plateau at height 1 out to the report's maximizer r_bar, or 0.8 Rmax
    when it has none in (0, Rmax] (functions on the half line need not
    vanish at the origin), then the shifted tail profile
    (T(r) - T(Rc)) / (T(r_bar) - T(Rc)) down to zero at the last node Rc.
    The plateau is pulled in if the sampled range keeps less than 95% of
    the tail mass past r_bar.
    """
    if weight.tail.family == "divergent":
        raise ValidationError("no extremal shape for a divergent weight")
    r_bar = report.r_bar if report.r_bar else 0.8 * weight.Rmax
    nodes = weight.rgrid[1:]
    Rc = float(nodes[-1])
    T_c = float(weight.T_at(np.float64(Rc)))
    T_n = np.asarray(weight.T_at(nodes), float)
    room = T_n >= 20.0 * T_c
    r_ok = float(nodes[np.flatnonzero(room)[-1]]) if np.any(room) else 0.9 * Rc
    r_bar = min(float(r_bar), r_ok)
    T_bar = float(weight.T_at(np.float64(r_bar)))
    g = np.where(nodes <= r_bar, 1.0,
                 np.maximum(T_n - T_c, 0.0) / (T_bar - T_c))
    g[-1] = 0.0
    dead = (nodes > r_bar) & (g < 1e-9)
    if np.any(dead):  # fast-decaying tail: close support at the first dead node
        cut = int(np.argmax(dead))
        nodes, g = nodes[:cut + 1].copy(), g[:cut + 1].copy()
        g[-1] = 0.0
    return nodes, g


def plin_norms(weight: WeightMeasure, r: np.ndarray, g: np.ndarray, p: float):
    """(gradient L2 norm, Lp norm) of a piecewise-linear g wrt the weight.

    g is treated as constant equal to g[0] on [0, r[0]] and zero past r[-1].
    """
    r = np.asarray(r, float)
    g = np.asarray(g, float)
    if r.ndim != 1 or r.shape != g.shape or np.any(np.diff(r) <= 0):
        raise ValidationError("nodes must be strictly increasing and match g")
    lo, hi = r[:-1], r[1:]
    glo, ghi = g[:-1], g[1:]
    slope = (ghi - glo) / (hi - lo)
    wint = np.asarray(weight.W_at(hi), float) - np.asarray(weight.W_at(lo), float)
    grad2 = float(np.sum(slope ** 2 * wint))

    gq = np.abs(np.outer(_PHI_L, glo) + np.outer(_PHI_R, ghi)) ** p  # |g|^p at the Gauss points
    pint = float(np.sum(_gl5_between(lambda s: gq * weight.w_at(s), lo, hi)))
    pint += float(weight.W_at(np.float64(r[0]))) * abs(g[0]) ** p
    return math.sqrt(grad2), pint ** (1.0 / p)
