"""Radial model geometries built from prescribed curvature laws.

A model geometry in dimension N is described by a warping function psi on
[0, Rmax] with psi(0) = 0, psi'(0) = 1 and psi > 0 elsewhere.  Nonpositive
sectional curvature corresponds to psi'' = K(r) psi with K >= 0.  All
curvature data derive from (psi, psi', K):

* radial sectional curvature      -K(r)
* radial Ricci curvature          -(N-1) K(r)
* tangential Ricci curvature      -K(r) - (N-2) (psi'^2 - 1) / psi^2
* Laplacian of the distance       (N-1) psi'(r) / psi(r)

The second derivative psi'' is always reconstructed as K(r) * psi(r) and
never obtained by differencing samples twice, so the curvature identity is
exact by construction.

Every built-in profile has a closed-form warping: sinh for constant
curvature, and for the power law c0 r^(-beta) the flat cap psi = r on
[0, r0] glued to modified Bessel functions (beta < 2) or to two powers of r
(beta = 2) past r0.  A law given without one is
integrated in log variables (y, z) = (log psi, psi'/psi), which stay well
scaled even when psi itself grows to ~1e300:

    y' = z ,    z' = K(r) - z^2 .

A curvature profile is any object that supplies

* ``curvature(r)``  -- its law K(r), vectorised over r;
* ``flat_cap``      -- the radius of its flat cap psi(r) = r (0 for none);
* ``tail(model)``   -- the :class:`TailModel` its warping follows past
  ``model.Rmax``.

and optionally

* ``psi``, ``dpsi``, ``logpsi``, ``dlogpsi`` -- a closed form.  Without
  one, the law is checked to be nonnegative and integrated as above;
* ``tail_integral(model)`` -- the integral of psi^(1-N) over (Rmax,
  infinity).  Without it (or when it is None) :func:`tail_past_rmax` takes
  the closed form of the tail family anchored at psi(Rmax).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import CubicHermiteSpline, CubicSpline
from scipy.special import ive, kve

from .errors import (
    CurvatureNotVanishing,
    FlatProfile,
    GridTooCoarse,
    NonHadamardProfile,
    NumericalError,
    OutOfDomain,
    TailUnclassifiable,
    ValidationError,
)

__all__ = [
    "Constant",
    "PowerLaw",
    "QuasiEuclideanOptimal",
    "Euclidean",
    "Hyperbolic",
    "ExponentialPower",
    "CurvatureProfile",
    "TailModel",
    "tail_past_rmax",
    "GridSpec",
    "ModelFunction",
    "CurvatureReport",
    "ComparisonReport",
    "EuclideanBound",
    "Lemma31Bound",
    "McKeanBound",
    "WeakRicciBound",
    "build_model",
    "curvature_at",
    "is_cartan_hadamard",
    "check_comparison",
    "lemma31_constants",
    "ricci_uniformization",
    "model_to_csv",
    "model_from_csv",
]

_ODE_RTOL = 1e-11
_ODE_ATOL = 1e-13
_GRID_RATIO = 1.05  # node spacing ratio of the geometric part of a graded grid
_EXP_POWER_BLEND = (0.5, 1.5)  # radii between which ExponentialPower blends r into its tail


# ---------------------------------------------------------------------------
# large-radius tails
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailModel:
    """Large-radius form of psi.

    family 'exponential': log psi ~ rate * r^shape, and
                          psi ~ amplitude * exp(rate * r) when shape = 1
    family 'power':       psi ~ amplitude * r^shape
    family 'divergent':   1/psi^(N-1) is not integrable at infinity

    A profile states its tail with residual 0; for ``Constant(k > 0)`` and
    the power law at beta = 2 the stated form is the leading term of psi,
    not psi itself.  The ``fit_*`` constructors classify an imported table,
    whose residual is that of the least-squares fit.
    """

    family: str
    shape: float = 0.0
    rate: float = 0.0
    amplitude: float = 1.0
    residual: float = 0.0

    @staticmethod
    def _line_fit(model, basis):
        """(slope, exp(intercept), residual) of the least-squares line of
        log psi against basis(r) on [Rmax/10, Rmax]."""
        rr = np.geomspace(model.Rmax / 10.0, model.Rmax, 160)
        y = np.asarray(model.logpsi(rr), float)
        A = np.stack([basis(rr), np.ones_like(rr)], axis=1)
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        residual = np.sqrt(np.mean((y - A @ coef) ** 2)) / max(1.0, np.sqrt(np.mean(y * y)))
        return float(coef[0]), float(math.exp(coef[1])), float(residual)

    @classmethod
    def fit_exponential(cls, model) -> "TailModel":
        """log psi = rate r + log amplitude, fitted on [Rmax/10, Rmax]."""
        return cls("exponential", 1.0, *cls._line_fit(model, lambda r: r))

    @classmethod
    def fit_power(cls, model) -> "TailModel":
        """log psi = shape log r + log amplitude, fitted on [Rmax/10, Rmax]."""
        shape, amplitude, residual = cls._line_fit(model, np.log)
        return cls("power", shape=shape, amplitude=amplitude, residual=residual)


def _tail_quadrature(profile, model) -> float:
    """Integral of psi^(1-N) over (Rmax, infinity) from a closed-form log psi.

    Adaptive quadrature in u = 1/r over (0, 1/Rmax) of the integrand
    anchored at psi(Rmax), so neither psi nor the integral leaves the float64
    range.  The ``tail_integral`` of :class:`PowerLaw`.
    """
    N, R = model.N, model.Rmax
    yR = float(profile.logpsi(np.float64(R)))

    def anchored(u):
        return math.exp((1.0 - N) * (float(profile.logpsi(np.float64(1.0 / u))) - yR)) / (u * u)

    val, _ = quad(anchored, 0.0, 1.0 / R, epsabs=0.0, epsrel=1e-12, limit=200)
    return val * math.exp((1.0 - N) * yR)


def tail_past_rmax(model) -> tuple:
    """(TailModel of psi past Rmax, T(Rmax) = integral of psi^(1-N) there).

    An imported table takes the better of the two fits, refused above
    residual 1e-3.  A fitted rate <= 0 or a power tail with shape (N-1) <= 1
    diverges, and T(Rmax) is infinite; else it is the profile's
    ``tail_integral`` or the family's closed form anchored at psi(Rmax),
    which exists for power tails and exponential tails of shape 1.
    """
    N, R = model.N, model.Rmax
    if model.profile is not None:
        tm = model.profile.tail(model)
    else:
        tm = min((TailModel.fit_power(model), TailModel.fit_exponential(model)),
                 key=lambda t: t.residual)
        if tm.residual > 1e-3:
            raise TailUnclassifiable(f"tail fit residual {tm.residual:.2e} exceeds 1e-3")
        if tm.family == "exponential" and tm.rate <= 0:
            tm = TailModel("divergent")
    if tm.family == "power" and tm.shape * (N - 1) <= 1.0 + 1e-12:
        tm = replace(tm, family="divergent")
    if tm.family == "divergent":
        return tm, math.inf
    if getattr(model.profile, "tail_integral", None) is not None:
        return tm, model.profile.tail_integral(model)
    anchor = math.exp((1.0 - N) * float(model.logpsi(np.float64(R))))
    if tm.family == "power":
        return tm, R * anchor / (tm.shape * (N - 1) - 1.0)
    if tm.shape != 1.0:
        raise ValidationError(f"exponential tail of shape {tm.shape} needs a tail_integral")
    return tm, anchor / ((N - 1.0) * tm.rate)


# ---------------------------------------------------------------------------
# curvature profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    """Constant curvature law K = k (k = 0 is flat, k > 0 hyperbolic-like)."""

    k: float

    def __post_init__(self):
        if self.k < 0:
            raise ValidationError(f"constant curvature needs k >= 0, got {self.k}")

    flat_cap = 0.0

    def curvature(self, r):
        return np.full_like(np.asarray(r, float), float(self.k))

    def tail(self, model) -> TailModel:
        if self.k == 0.0:
            return TailModel("power", shape=1.0, amplitude=1.0)
        s = math.sqrt(self.k)
        return TailModel("exponential", shape=1.0, rate=s, amplitude=0.5 / s)

    @property
    def tail_integral(self):
        """Exact T(Rmax) for k > 0; the flat tail has no need of one."""
        return self._sinh_tail_integral if self.k > 0.0 else None

    def _sinh_tail_integral(self, model) -> float:
        """With s = sqrt(k), n = N - 1 and q = exp(-2 s Rmax), expanding
        psi^(-n) in powers of exp(-2 s r) integrates to T = psi(Rmax)^(-n)
        (1-q)^n sum_j C(n-1+j, j) q^j / ((n+2j) s).  By Euler's transformation
        of this hypergeometric series, T = psi(Rmax)^(-n) (1-q) / (n s) *
        sum_j (1-n/2)_j / (1+n/2)_j q^j: a polynomial for even n, else summed
        while q^j > e^(-37)."""
        s, n, R = math.sqrt(self.k), model.N - 1, model.Rmax
        terms = n // 2 if n % 2 == 0 else int(math.ceil(18.5 / (s * R))) + 1
        if terms > 10 ** 6:
            raise ValidationError(f"sqrt(k) Rmax = {s * R:.3g} is too small for the tail series")
        j = np.arange(terms - 1)
        series = 1.0 + math.fsum(np.cumprod((j + 1.0 - n / 2.0) / (j + 1.0 + n / 2.0)
                                            * math.exp(-2.0 * s * R)))
        return math.exp(-n * float(self.logpsi(R))) * -math.expm1(-2.0 * s * R) / (n * s) * series

    def psi(self, r):
        r = np.asarray(r, float)
        if self.k == 0.0:
            return r.copy()
        s = math.sqrt(self.k)
        return np.sinh(s * r) / s

    def dpsi(self, r):
        r = np.asarray(r, float)
        if self.k == 0.0:
            return np.ones_like(r)
        return np.cosh(math.sqrt(self.k) * r)

    def logpsi(self, r):
        r = np.asarray(r, float)
        if self.k == 0.0:
            with np.errstate(divide="ignore"):
                return np.log(r)
        s = math.sqrt(self.k)
        x = s * r
        # log(sinh x) = x - log 2 + log(-expm1(-2x)), accurate for all x > 0
        with np.errstate(divide="ignore"):
            return x - math.log(2.0) + np.log(-np.expm1(-2.0 * x)) - math.log(s)

    def dlogpsi(self, r):
        r = np.asarray(r, float)
        with np.errstate(divide="ignore"):
            if self.k == 0.0:
                return 1.0 / r
            s = math.sqrt(self.k)
            return s / np.tanh(s * r)


def Euclidean() -> Constant:
    """Flat model, psi(r) = r."""
    return Constant(0.0)


def Hyperbolic(k: float) -> Constant:
    """Constant curvature -k, psi(r) = sinh(sqrt(k) r) / sqrt(k)."""
    if k <= 0:
        raise ValidationError(f"hyperbolic profile needs k > 0, got {k}")
    return Constant(k)


@dataclass(frozen=True)
class PowerLaw:
    """K = c0 r^(-beta) outside radius r0, flat cap K = 0 inside.

    The cap makes psi(r) = r exactly on [0, r0] with a C^1 glue at r0; the
    curvature itself may jump there, which is harmless for every integral
    quantity computed downstream.  Past r0 the warping is exact and kept in
    ``exact``: for beta < 2, psi'' = c0 r^(-beta) psi reduces to the modified
    Bessel equation (:class:`_BesselWarping`); at beta = 2 it is Euler's
    equation, solved by two powers of r (:class:`_EulerWarping`).
    """

    c0: float
    beta: float
    r0: float = 1.0

    def __post_init__(self):
        if self.c0 <= 0:
            raise ValidationError(f"power law needs c0 > 0, got {self.c0}")
        if not (0.0 < self.beta <= 2.0):
            raise ValidationError(f"power law needs beta in (0, 2], got {self.beta}")
        if self.r0 <= 0:
            raise ValidationError(f"power law needs r0 > 0, got {self.r0}")
        exact = (_BesselWarping(self.c0, self.beta, self.r0) if self.beta < 2.0
                 else _EulerWarping(self.c0, self.r0))
        object.__setattr__(self, "exact", exact)

    @property
    def flat_cap(self):
        return self.r0

    def curvature(self, r):
        r = np.asarray(r, float)
        return np.where(r >= self.r0,
                        self.c0 * np.maximum(r, self.r0) ** (-self.beta), 0.0)

    def _glued(self, r, past, cap):
        """past(r) on r >= r0, cap(r) on the flat cap."""
        r = np.asarray(r, float)
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(r >= self.r0, past(np.maximum(r, self.r0)), cap(r))

    def logpsi(self, r):
        return self._glued(r, self.exact.logpsi, np.log)

    def dlogpsi(self, r):
        return self._glued(r, self.exact.dlogpsi, lambda q: 1.0 / q)

    def psi(self, r):
        return self._glued(r, lambda q: np.exp(self.exact.logpsi(q)), lambda q: q)

    def dpsi(self, r):
        return self._glued(r, lambda q: np.exp(self.exact.logpsi(q)) * self.exact.dlogpsi(q),
                           np.ones_like)

    def tail(self, model) -> TailModel:
        """log psi ~ (2 sqrt(c0) / (2 - beta)) r^(1 - beta/2) for beta < 2;
        psi ~ a1 r^q1 with q1 (q1 - 1) = c0 at beta = 2."""
        return self.exact.tail(model)

    tail_integral = _tail_quadrature


class _BesselWarping:
    """Exact warping of K = c0 r^(-beta), 0 < beta < 2, for r >= r0.

    With m = 1 - beta/2, x = sqrt(c0) r^m / m and nu = 1/(2m),

        psi  = sqrt(r) [A I_nu(x) + B K_nu(x)],
        psi' = sqrt(c0) r^((1 - beta)/2) [A I_(nu-1)(x) - B K_(nu-1)(x)]

    (NIST DLMF 10.13; Watson, *A Treatise on the Theory of Bessel
    Functions*, ch. IV).  A and B solve psi(r0) = r0, psi'(r0) = 1.  In the
    scaled functions ive = I_nu e^(-x), kve = K_nu e^x, with a = A e^x0 and
    b = B e^(-x0) at x0 = x(r0),

        log psi = log(r)/2 + (x - x0) + log(a ive(x) + b e^(-2 (x - x0)) kve(x)),

    every term of which stays finite for all r >= r0.
    """

    def __init__(self, c0: float, beta: float, r0: float):
        self.beta, self.m = beta, 1.0 - beta / 2.0
        self.sqrt_c0, self.nu = math.sqrt(c0), 0.5 / self.m
        self.rate = self.sqrt_c0 / self.m
        self.x0 = x0 = self.rate * r0 ** self.m
        i0, k0 = ive(self.nu, x0), kve(self.nu, x0)
        i1, k1 = ive(self.nu - 1.0, x0), kve(self.nu - 1.0, x0)
        slope = r0 ** ((beta - 1.0) / 2.0) / self.sqrt_c0  # psi' bracket giving psi'(r0) = 1
        det = i0 * k1 + k0 * i1
        self.a = (math.sqrt(r0) * k1 + slope * k0) / det
        self.b = (math.sqrt(r0) * i1 - slope * i0) / det

    def _bracket(self, r, order: float, sign: float):
        """(x - x0, the scaled bracket of the given order)."""
        x = self.rate * r ** self.m
        dx = x - self.x0
        return dx, self.a * ive(order, x) + sign * self.b * np.exp(-2.0 * dx) * kve(order, x)

    def logpsi(self, r):
        dx, bracket = self._bracket(r, self.nu, 1.0)
        return 0.5 * np.log(r) + dx + np.log(bracket)

    def dlogpsi(self, r):
        _, bracket = self._bracket(r, self.nu, 1.0)
        _, dbracket = self._bracket(r, self.nu - 1.0, -1.0)
        return self.sqrt_c0 * r ** (-self.beta / 2.0) * dbracket / bracket

    def tail(self, model) -> TailModel:
        return TailModel("exponential", shape=self.m, rate=self.rate)


class _EulerWarping:
    """Exact warping of K = c0 r^(-2) for r >= r0: Euler's equation.

    psi = a1 r^q1 + a2 r^q2 with q_{1,2} = (1 +/- sqrt(1 + 4 c0)) / 2, the
    roots of q (q - 1) = c0, and (a1, a2) solving psi(r0) = r0, psi'(r0) = 1.
    In the log domain log psi = log a1 + q1 log r + log1p(rho) and (log psi)'
    = (q1 + q2 rho) / (r (1 + rho)), with rho = (a2 / a1) r^(q2 - q1) > 0, so
    neither overflows for r >= r0.
    """

    def __init__(self, c0: float, r0: float):
        d = math.sqrt(1.0 + 4.0 * c0)
        self.q1, self.q2 = q1, q2 = (1.0 + d) / 2.0, (1.0 - d) / 2.0
        self.a1 = (1.0 - q2) * r0 ** (1.0 - q1) / (q1 - q2)
        self.a2 = (q1 - 1.0) * r0 ** (1.0 - q2) / (q1 - q2)

    def _rho(self, r):
        return self.a2 / self.a1 * r ** (self.q2 - self.q1)

    def logpsi(self, r):
        return math.log(self.a1) + self.q1 * np.log(r) + np.log1p(self._rho(r))

    def dlogpsi(self, r):
        rho = self._rho(r)
        return (self.q1 + self.q2 * rho) / (r * (1.0 + rho))

    def tail(self, model) -> TailModel:
        """The growing term a1 r^q1: q1 > 1 and a1 > 0."""
        return TailModel("power", shape=self.q1, amplitude=self.a1)


def QuasiEuclideanOptimal(c1: float, r0: float = 1.0) -> PowerLaw:
    """Quadratic decay K = c1 r^(-2) outside r0: the power law at beta = 2."""
    return PowerLaw(c1, 2.0, r0)


def _smoothstep(x):
    s = x * x * (3.0 - 2.0 * x)
    ds = 6.0 * x * (1.0 - x)
    d2s = 6.0 - 12.0 * x
    return s, ds, d2s


@dataclass(frozen=True)
class ExponentialPower:
    """Decaying warping exp(-c2 r^gamma) at large radius, blended to r near 0.

    Positive but eventually decreasing: a geometry with a pole that is *not*
    nonpositively curved through the blend, useful as a counterexample input
    for :func:`is_cartan_hadamard`.
    """

    c2: float = 1.0
    gamma: float = 0.5

    def __post_init__(self):
        if self.c2 <= 0 or not (0.0 < self.gamma < 1.0):
            raise ValidationError("exponential-power warping needs c2 > 0, gamma in (0,1)")

    flat_cap = 0.0

    def tail(self, model) -> TailModel:
        return TailModel("divergent")

    def _triplet(self, r):
        r = np.asarray(r, float)
        ra, rb = _EXP_POWER_BLEND
        c, g = self.c2, self.gamma
        rc = np.maximum(r, 0.5 * ra)  # tail values are unused below ra
        t = np.exp(-c * rc ** g)
        dt = -c * g * rc ** (g - 1.0) * t
        d2t = (c * c * g * g * rc ** (2.0 * g - 2.0) - c * g * (g - 1.0) * rc ** (g - 2.0)) * t
        x = np.clip((r - ra) / (rb - ra), 0.0, 1.0)
        s, ds, d2s = _smoothstep(x)
        ds = ds / (rb - ra)
        d2s = d2s / (rb - ra) ** 2
        inside = (r <= ra) | (r >= rb)
        ds = np.where(inside, 0.0, ds)
        d2s = np.where(inside, 0.0, d2s)
        psi = (1.0 - s) * r + s * t
        dpsi = (1.0 - s) + ds * (t - r) + s * dt
        d2psi = d2s * (t - r) + 2.0 * ds * (dt - 1.0) + s * d2t
        return psi, dpsi, d2psi

    def psi(self, r):
        return self._triplet(r)[0]

    def dpsi(self, r):
        return self._triplet(r)[1]

    def logpsi(self, r):
        with np.errstate(divide="ignore"):
            return np.log(self.psi(r))

    def dlogpsi(self, r):
        p, dp, _ = self._triplet(r)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = dp / p
        return np.where(np.asarray(r, float) == 0.0, np.inf, out)

    def curvature(self, r):
        p, _, d2 = self._triplet(r)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = d2 / p
        return np.where(np.asarray(r, float) == 0.0, 0.0, out)


CurvatureProfile = Union[Constant, PowerLaw, ExponentialPower]


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Sampling grid: geometric near the origin, uniform past r = 1.

    ``kind="log"`` switches to a single geometric progression over the whole
    range, which resolves very large domains better at equal node count.
    """

    n: int = 4096
    r_start: Optional[float] = None
    kind: str = "graded"

    def start(self, rmax: float) -> float:
        return self.r_start if self.r_start is not None else 1e-6 * rmax

    def nodes(self, rmax: float) -> np.ndarray:
        if self.kind not in ("graded", "log"):
            raise ValidationError(f"unknown grid kind {self.kind!r}")
        if self.n < 64:
            raise ValidationError("grid needs at least 64 nodes")
        a = self.start(rmax)
        if not (0.0 < a < rmax):
            raise ValidationError("grid start must lie in (0, rmax)")
        if self.kind == "log" or rmax <= 1.0:
            return np.geomspace(a, rmax, self.n)
        n_geo = int(math.ceil(math.log(1.0 / a) / math.log(_GRID_RATIO))) + 1
        n_geo = min(max(n_geo, 16), self.n - 16)
        geo = np.geomspace(a, 1.0, n_geo)
        uni = np.linspace(1.0, rmax, self.n - n_geo + 1)[1:]
        return np.concatenate([geo, uni])


# ---------------------------------------------------------------------------
# the model object
# ---------------------------------------------------------------------------

@dataclass
class ModelFunction:
    """Warping function of a radial model geometry plus its curvature law.

    Evaluation methods accept scalars or arrays in [0, Rmax].  ``grid_*``
    arrays are the export table (first row is the exact origin values).
    ``warping`` evaluates psi, psi', log psi, psi'/psi and K: the profile
    itself when it has a closed form, else a :class:`_LogSpline`.
    """

    profile: Optional[CurvatureProfile]
    N: int
    Rmax: float
    grid_r: np.ndarray
    grid_psi: np.ndarray
    grid_dpsi: np.ndarray
    built_by: str
    warping: object

    def _check(self, r):
        r = np.asarray(r, float)
        if np.any(r < 0) or np.any(r > self.Rmax * (1 + 1e-12)):
            raise OutOfDomain(f"radius outside [0, {self.Rmax}]")
        return r

    def psi(self, r):
        return self.warping.psi(self._check(r))

    def dpsi(self, r):
        return self.warping.dpsi(self._check(r))

    def logpsi(self, r):
        return self.warping.logpsi(self._check(r))

    def dlogpsi(self, r):
        return self.warping.dlogpsi(self._check(r))

    def curvature(self, r):
        """K(r) = psi''/psi; the radial sectional curvature is -K."""
        return self.warping.curvature(self._check(r))

    def table(self):
        """Rows (r, psi, psi') of the export table.

        Refuses a table that overflows float64, naming the first radius
        where psi or psi' is not finite.
        """
        bad = ~(np.isfinite(self.grid_psi) & np.isfinite(self.grid_dpsi))
        if np.any(bad):
            raise ValidationError(
                f"warping table overflows float64 at r = {self.grid_r[np.argmax(bad)]:.6g}; "
                "reduce Rmax or the curvature scale")
        return zip(self.grid_r, self.grid_psi, self.grid_dpsi)


@dataclass(frozen=True)
class CurvatureReport:
    r: float
    sect_radial: float
    ric_radial: float
    ric_tangential: float
    laplacian_density: float


class _LogSpline:
    """Warping interpolated from node values of y = log psi and z = psi'/psi.

    y is the cubic Hermite spline through (y, z).  Given the curvature law
    K, z is the Hermite spline through (z, K - z^2) and K stays the law.
    Without one, as for an imported table, u = r z is splined in log r and
    K = (du/dlog r + u (u - 1)) / r^2: near the pole z' ~ -1/r^2 and
    z^2 ~ 1/r^2 would cancel in K = z' + z^2.  Below the first node psi
    continues linearly through its value there, y = log r + const and
    z = 1/r, so the K taken from u is 0 there.
    """

    def __init__(self, r, y, z, K=None):
        self.r1 = float(r[0])
        self.y_shift = float(y[0]) - math.log(self.r1)
        self.y_spl = CubicHermiteSpline(r, y, z)
        if K is None:
            self.u_spl = CubicSpline(np.log(r), r * z)
            self.z_spl = lambda q: self.u_spl(np.log(q)) / q
            self.curvature = self._u_curvature
        else:
            self.z_spl = CubicHermiteSpline(r, z, np.asarray(K(r), float) - z * z)
            self.curvature = K

    def _past_first_node(self, spline, q, below):
        hi = q >= self.r1
        if np.any(hi):
            return np.where(hi, spline(np.maximum(q, self.r1)), below)
        return below

    def logpsi(self, q):
        q = np.asarray(q, float)
        with np.errstate(divide="ignore"):
            below = np.where(q < self.r1, np.log(np.maximum(q, 0.0)) + self.y_shift, 0.0)
        return self._past_first_node(self.y_spl, q, below)

    def dlogpsi(self, q):
        q = np.asarray(q, float)
        with np.errstate(divide="ignore"):
            below = np.where(q < self.r1, 1.0 / q, 0.0)
        return self._past_first_node(self.z_spl, q, below)

    def psi(self, q):
        q = np.asarray(q, float)
        return np.where(q == 0.0, 0.0, np.exp(self.logpsi(np.maximum(q, 1e-300))))

    def dpsi(self, q):
        q = np.asarray(q, float)
        qq = np.maximum(q, 1e-300)
        return np.where(q == 0.0, 1.0, np.exp(self.logpsi(qq)) * self.dlogpsi(qq))

    def _u_curvature(self, q):
        q = np.asarray(q, float)
        qq = np.maximum(q, self.r1)
        s = np.log(qq)
        u = self.u_spl(s)
        return np.where(q < self.r1, 0.0, (self.u_spl(s, 1) + u * (u - 1.0)) / (qq * qq))


def _series_start(K0: float, r: float):
    # psi = r + K0 r^3 / 6 + O(r^5) near the pole
    y = math.log(r) + math.log1p(K0 * r * r / 6.0)
    z = (1.0 + K0 * r * r / 2.0) / (r * (1.0 + K0 * r * r / 6.0))
    return y, z


def _integrate_profile(profile, rmax, r_a, n_nodes) -> _LogSpline:
    """Integrate y' = z, z' = K - z^2 from r_a and spline the result."""
    Kf = profile.curvature

    def rhs(r, state):
        y, z = state
        return [z, float(Kf(np.float64(r))) - z * z]

    K0 = float(Kf(np.float64(r_a)))
    if profile.flat_cap > 0:
        y0, z0 = math.log(r_a), 1.0 / r_a
    else:
        y0, z0 = _series_start(K0, r_a)
    nodes = np.geomspace(r_a, rmax, n_nodes)
    nodes[0], nodes[-1] = r_a, rmax
    sol = solve_ivp(rhs, (r_a, rmax), [y0, z0], method="RK45",
                    t_eval=nodes, rtol=_ODE_RTOL, atol=_ODE_ATOL)
    if not sol.success:
        raise NumericalError(f"warping integration failed: {sol.message}")
    yv, zv = sol.y
    spline = _LogSpline(nodes, yv, zv, K=Kf)
    # a-posteriori consistency estimate: the two splines must agree on y' = z
    mid = np.sqrt(nodes[:-1] * nodes[1:])
    h = np.diff(nodes)
    defect = np.abs(spline.y_spl(mid, 1) - spline.z_spl(mid)) * h
    if np.max(defect) > 1e-6 * max(1.0, np.max(np.abs(yv))):
        raise GridTooCoarse(
            f"warping table defect {np.max(defect):.2e}; increase grid nodes")
    return spline


def build_model(profile: CurvatureProfile, N: int, Rmax: float,
                grid: Optional[GridSpec] = None, method: str = "auto") -> ModelFunction:
    """Construct the warping function of a model geometry.

    A profile with a closed form is evaluated through it.  The law is
    integrated if and only if the profile has none or ``method="ode"``
    (used to cross-validate the integrator), and it is probed for K >= 0
    before every integration.
    """
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise ValidationError(f"dimension must be an integer >= 2, got {N}")
    if not np.isfinite(Rmax) or Rmax <= 0:
        raise ValidationError(f"Rmax must be positive, got {Rmax}")
    if method not in ("auto", "ode"):
        raise ValidationError(f"unknown build method {method!r}")
    cap = float(profile.flat_cap)
    if cap > 0 and Rmax <= cap:
        raise ValidationError(f"Rmax = {Rmax} must exceed the cap radius {cap}")
    grid = grid or GridSpec()

    if method == "ode" or not hasattr(profile, "psi"):
        probe = np.geomspace(max(cap, 1e-8 * Rmax), Rmax, 2048)
        kk = np.asarray(profile.curvature(probe), float)
        if np.any(kk < -1e-12 * max(1.0, np.max(np.abs(kk)))):
            bad = probe[np.argmax(kk < 0)]
            raise NonHadamardProfile(f"curvature law is negative near r = {bad:.6g}")
        r_a = cap if cap > 0 else grid.start(Rmax)
        warping = _integrate_profile(profile, Rmax, r_a, max(grid.n, 6144))
        built_by = "ode"
    else:
        warping, built_by = profile, "closed"

    rg = np.concatenate([[0.0], grid.nodes(Rmax)])
    gp = np.asarray(warping.psi(rg), float)
    gdp = np.asarray(warping.dpsi(rg), float)
    gp[0], gdp[0] = 0.0, 1.0
    return ModelFunction(profile=profile, N=int(N), Rmax=float(Rmax),
                         grid_r=rg, grid_psi=gp, grid_dpsi=gdp,
                         built_by=built_by, warping=warping)


# ---------------------------------------------------------------------------
# curvature queries
# ---------------------------------------------------------------------------

def _ric_tangential(model: ModelFunction, r):
    K = model.curvature(r)
    z = model.dlogpsi(r)
    inv_psi2 = np.exp(-2.0 * model.logpsi(r))
    return -K - (model.N - 2) * (z * z - inv_psi2)


def curvature_at(model: ModelFunction, r: float) -> CurvatureReport:
    """All pointwise curvature data at radius r in (0, Rmax]."""
    if not (0.0 < r <= model.Rmax * (1 + 1e-12)):
        raise OutOfDomain(f"radius {r} outside (0, {model.Rmax}]")
    rr = np.float64(r)
    K = float(model.curvature(rr))
    return CurvatureReport(
        r=float(r),
        sect_radial=-K,
        ric_radial=-(model.N - 1) * K,
        ric_tangential=float(_ric_tangential(model, rr)),
        laplacian_density=float((model.N - 1) * model.dlogpsi(rr)),
    )


def is_cartan_hadamard(model: ModelFunction, tol: float = 1e-10):
    """(flag, first violation radius): nonpositive sectional curvature check.

    True iff K(r) >= 0 on the whole sampled range; otherwise the smallest
    radius where K dips negative is reported.
    """
    r = model.grid_r[1:]
    K = np.asarray(model.curvature(r), float)
    thresh = -tol * max(1.0, float(np.max(np.abs(K))))
    bad = K < thresh
    if not np.any(bad):
        return True, None
    return False, float(r[np.argmax(bad)])


@dataclass(frozen=True)
class ComparisonReport:
    bound: str
    holds: bool
    r: np.ndarray
    ok: np.ndarray
    fail_interval: Optional[tuple]


@dataclass(frozen=True)
class EuclideanBound:
    name = "euclidean"


@dataclass(frozen=True)
class Lemma31Bound:
    c: float
    r0: float
    beta: float
    name = "lemma31"


@dataclass(frozen=True)
class McKeanBound:
    k: float
    name = "mckean"


@dataclass(frozen=True)
class WeakRicciBound:
    """Comparison via the model's own warping sampled at sqrt(N-1) r.

    Valid under one-directional Ricci (rather than sectional) control; on
    a model it is strictly weaker than the sectional version, and is
    exposed only as an optional mode.
    """

    name = "weak_ricci"


def check_comparison(model: ModelFunction, bound) -> ComparisonReport:
    """Verify a pointwise lower bound on the Laplacian density (or on psi'/psi).

    * ``EuclideanBound``: (N-1) psi'/psi >= (N-1)/r for all r,
    * ``Lemma31Bound(c, r0, beta)``: (N-1) psi'/psi >= c r^(-beta/2) for r >= r0,
    * ``McKeanBound(k)``: psi'/psi >= sqrt(k) for all r.

    The report flags the largest contiguous failing radius interval, if any.
    """
    r = model.grid_r[1:]
    z = np.asarray(model.dlogpsi(r), float)
    slack = 1e-12
    if isinstance(bound, EuclideanBound):
        ok = (model.N - 1) * z >= (model.N - 1) / r * (1 - slack)
    elif isinstance(bound, Lemma31Bound):
        target = bound.c * r ** (-bound.beta / 2.0)
        ok = (model.N - 1) * z >= target * (1 - slack)
        ok |= r < bound.r0
    elif isinstance(bound, McKeanBound):
        ok = z >= math.sqrt(bound.k) * (1 - slack)
    elif isinstance(bound, WeakRicciBound):
        s = math.sqrt(model.N - 1)
        reach = r * s <= model.Rmax
        r = r[reach]
        z = z[reach]
        ok = (model.N - 1) * z >= s * np.asarray(model.dlogpsi(s * r), float) * (1 - slack)
    else:
        raise ValidationError(f"unknown comparison bound {bound!r}")
    holds = bool(np.all(ok))
    interval = None
    if not holds:
        # longest run of failures
        fail = ~ok
        idx = np.flatnonzero(np.diff(np.concatenate([[0], fail.view(np.int8), [0]])))
        starts, ends = idx[0::2], idx[1::2]
        j = np.argmax(ends - starts)
        interval = (float(r[starts[j]]), float(r[ends[j] - 1]))
    return ComparisonReport(bound=bound.name, holds=holds, r=r, ok=ok,
                            fail_interval=interval)


def lemma31_constants(model: ModelFunction):
    """Scan for (c, r0) such that psi'/psi >= c r^(-beta/2) for r >= r0.

    beta is the decay exponent of the model's profile.  c is half the
    infimum of (psi'/psi) r^(beta/2) over the scanned tail, which starts at
    the larger of the profile's flat cap and Rmax/100; r0 is the earliest
    grid radius past which the bound holds throughout.
    """
    beta = getattr(model.profile, "beta", None)
    if beta is None:
        raise ValidationError("profile has no decay exponent")
    tail_start = max(float(getattr(model.profile, "flat_cap", 0.0)), 1e-2 * model.Rmax)
    r = model.grid_r[1:]
    prod = np.asarray(model.dlogpsi(r), float) * r ** (beta / 2.0)
    tail = r >= tail_start
    if not np.any(tail):
        raise ValidationError("tail window empty: the profile's flat cap lies past Rmax")
    c = 0.5 * float(np.min(prod[tail]))
    if c <= 0:
        raise ValidationError("psi'/psi not positive on the tail")
    ok = prod >= c
    # smallest radius from which the bound never fails again
    good_from = np.flatnonzero(~ok)
    r0 = float(r[good_from[-1] + 1]) if good_from.size else float(r[0])
    return c, r0


def ricci_uniformization(model: ModelFunction, R: float,
                         allow_constant: bool = False) -> float:
    """Radius scale G(R) with Ricci >= -(N-1)/G(R)^2 outside the ball of radius R.

    G is computed from the grid supremum of both Ricci eigenvalue magnitudes
    past R, so it is the largest admissible scale and is nondecreasing in R.
    Requires the curvature to vanish at large radius unless
    ``allow_constant`` is set.
    """
    if not (0.0 < R <= 0.8 * model.Rmax):
        raise OutOfDomain(f"need 0 < R <= 0.8 Rmax = {0.8 * model.Rmax:.6g}")
    r = model.grid_r[1:]
    rr = np.concatenate([[R], r[r > R]])
    K = np.asarray(model.curvature(rr), float)
    z = np.asarray(model.dlogpsi(rr), float)
    inv_psi2 = np.exp(-2.0 * np.asarray(model.logpsi(rr), float))
    rad = (model.N - 1) * K
    tang = K + (model.N - 2) * (z * z - inv_psi2)
    lam_pt = np.maximum(rad, np.maximum(tang, 0.0))
    lam = float(np.max(lam_pt))
    # cancellation noise floor: z^2 - 1/psi^2 is a difference of near-equal terms
    floor = 1e-12 * float(np.max(z * z + inv_psi2 + K))
    if lam <= floor:
        raise FlatProfile("Ricci curvature vanishes identically beyond R")
    if not allow_constant:
        tail = rr >= 0.8 * model.Rmax
        lam_tail = float(np.max(lam_pt[tail])) if np.any(tail) else lam
        if lam_tail > 0.9 * lam:
            raise CurvatureNotVanishing(
                "Ricci curvature does not decay beyond R; "
                "pass allow_constant=True to accept a constant bound")
    return math.sqrt((model.N - 1) / lam)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def model_to_csv(model: ModelFunction, path, header_comment: Optional[str] = None):
    """Write the sampled table as ``r,psi,dpsi`` at full double precision."""
    rows = model.table()
    with open(path, "w", newline="") as f:
        if header_comment:
            f.write(f"# {header_comment}\n")
        f.write("r,psi,dpsi\n")
        for r, p, dp in rows:
            f.write(f"{r:.17g},{p:.17g},{dp:.17g}\n")


def model_from_csv(path, N: int) -> ModelFunction:
    """Rebuild a model from an exported table.

    The warping is the log spline of the sampled (log psi, psi'/psi), whose
    curvature comes from differentiating r psi'/psi once in log r (never
    psi twice); closed-form provenance is lost.
    """
    rows = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("r,"):
                continue
            try:
                a, b, c = (float(x) for x in line.split(","))
            except ValueError:
                raise ValidationError(f"line {lineno} of {path} is not three numbers "
                                      f"r,psi,dpsi: {line!r}") from None
            if not all(map(math.isfinite, (a, b, c))):
                raise ValidationError(f"imported table is not finite at r = {a:.6g}")
            rows.append((a, b, c))
    if not rows:
        raise ValidationError(f"{path} holds no table rows")
    if rows[0][0] != 0.0:
        rows.insert(0, (0.0, 0.0, 1.0))
    if len(rows) < 3:
        raise ValidationError(f"{path} holds fewer than two table rows with r > 0")
    r, p, dp = map(np.asarray, zip(*rows))
    if np.any(np.diff(r) <= 0):
        raise ValidationError("imported radii must be strictly increasing")
    if np.any(p[1:] <= 0):
        raise ValidationError("imported psi must be positive for r > 0")
    rn, pn, dpn = r[1:], p[1:], dp[1:]
    return ModelFunction(profile=None, N=int(N), Rmax=float(rn[-1]),
                         grid_r=r, grid_psi=p, grid_dpsi=dp, built_by="table",
                         warping=_LogSpline(rn, np.log(pn), dpn / pn))
