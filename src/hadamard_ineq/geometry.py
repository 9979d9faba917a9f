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
* ``tail_integral(model)`` -- T(Rmax), the integral of psi^(1-N) over
  (Rmax, infinity), or inf where 1/psi^(N-1) is not integrable there;
* ``q_at_infinity(N, p)`` -- the limit of Q = W^(1/p) T^(1/2) as r ->
  infinity, which :func:`weighted.supremum_B` compares with the search.

and optionally

* ``psi``, ``dpsi``, ``logpsi``, ``dlogpsi`` -- a closed form.  Without
  one, the law is checked to be nonnegative and integrated as above;
* ``tangential_curvature(r)`` -- (psi'^2 - 1) / psi^2 in closed form, which
  the tangential Ricci curvature otherwise takes as z^2 - psi^(-2), z = psi'/psi.

The laws the command line builds, :class:`Constant` and :class:`PowerLaw`,
also state what they imply, with None (nan for a bound, -inf for a
barrier) where they imply nothing:

* ``lemma31``          -- the pair (c, r0) of Lemma 3.1, psi'/psi >= c
  r^(-beta/2) for r >= r0;
* ``barrier(r)``       -- its lower bound on psi'/psi, vectorised over r,
  for :func:`check_comparison`;
* ``bound_on_B(N, p)`` -- the explicit bound on B (Lemma 4.1, Lemma 4.2,
  or McKean's at p = 2);
* ``p_to_2_slope``     -- the predicted slope of log B against log(p - 2);
* ``log_fit_beta``     -- the beta of the porous-medium ``power_with_log`` fit;
* ``pme_dimension(N)`` -- the dimension of the predicted porous-medium
  decay exponent (N flat, Ntilde at beta = 2);
* ``mckean(N)``        -- McKean's (supremum bound, Poincare constant,
  spectral gap).

The members evaluate the pure formulas of :mod:`weighted` (``lemma41_bound``,
``lemma42_bound``, ``mckean_bounds``, ``critical_exponents``), imported where
called, since :mod:`weighted` imports this module.

The power law's Bessel functions ``ive`` and ``kve`` come from
:mod:`hadamard_ineq._kernels`, which loads their extension module without
importing ``scipy.special``.  Only the integrator and the spline of an
integrated warping use ``scipy.integrate`` and ``scipy.interpolate``, and
they import them when called, so work on closed-form profiles never loads
either.  Every quadrature here and in the modules built on it is the one
5-point Gauss-Legendre rule ``_gl5``; the power law's tail past Rmax is a sum of it
over log-radius panels (:func:`_tail_quadrature`).  The rule's nodes and weights
are constants, so ``numpy.polynomial`` is never imported.  Likewise every
straight-line fit in the package (the p -> 2 scaling law of
:mod:`weighted`, the decay law of :mod:`pme`) is ``_line_fit``, in closed
form, so no command calls LAPACK's least-squares solver.

The weight w = psi^(N-1) of every integral in this package is formed in one
place, :meth:`ModelFunction.log_weight`, which returns its log (N - 1) log psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ._kernels import ive, kve
from .errors import (
    BelowCriticalExponent,
    CurvatureNotVanishing,
    FlatProfile,
    GridTooCoarse,
    InvalidExponent,
    NonHadamardProfile,
    NumericalError,
    OutOfDomain,
    ValidationError,
)

__all__ = [
    "Constant",
    "PowerLaw",
    "QuasiEuclideanOptimal",
    "Euclidean",
    "Hyperbolic",
    "CurvatureProfile",
    "GridSpec",
    "ModelFunction",
    "CurvatureReport",
    "ComparisonReport",
    "build_model",
    "curvature_at",
    "is_cartan_hadamard",
    "check_comparison",
    "ricci_uniformization",
]

_ODE_RTOL = 1e-11
_ODE_ATOL = 1e-13
_GRID_RATIO = 1.05  # node spacing ratio of the geometric part of a graded grid
_TAIL_PANELS = 1 << 16  # cap on the log-radius panels of a tail integral
_TAIL_STOP = math.exp(-40.0)  # panel mean of the tail integrand / running sum that ends it
_TAIL_SETTLED = 1e-12  # change of the tail's power over its last panel that makes it exact
_CH_TOL = 1e-10  # K below -_CH_TOL max(1, max |K|) breaks the Cartan-Hadamard check

# The doubles that np.polynomial.legendre.leggauss(5) returns, written out so
# that no command imports numpy.polynomial.  The weights are not the correctly
# rounded ones (the middle weight is 0.5688888888888887, not 128/225), and every
# output byte depends on these.
GL5_NODES = np.array([-0.906179845938664, -0.5384693101056831, 0.0,
                      0.5384693101056831, 0.906179845938664])
GL5_WEIGHTS = np.array([0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
                        0.4786286704993663, 0.23692688505618928])


def _gl5(f, mid, half):
    """5-point Gauss-Legendre of f over [mid - half, mid + half], elementwise.

    f is called once, on the nodes stacked along a new leading axis.
    """
    nodes = mid + half * GL5_NODES.reshape((5,) + (1,) * np.broadcast(mid, half).ndim)
    acc = np.zeros_like(mid)
    for w, row in zip(GL5_WEIGHTS, f(nodes)):
        acc = acc + w * row
    return acc * half


def _sorted_unique(a):
    """np.unique of a 1-d array of finite numbers, without the import of
    ``numpy.ma`` that np.unique makes on its first call."""
    a = np.sort(a)
    keep = np.ones(a.shape, bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _line_fit(x, y):
    """(slope, intercept, residual rms) of the least-squares line of the array
    y on the array x, in closed form about the means; ValidationError unless x
    takes two distinct values."""
    dx = x - np.mean(x)
    if not dx @ dx > 0:
        raise ValidationError("a line fit needs at least two distinct abscissae")
    slope = float(dx @ (y - np.mean(y)) / (dx @ dx))
    intercept = float(np.mean(y) - slope * np.mean(x))
    return slope, intercept, math.sqrt(np.mean((y - (slope * x + intercept)) ** 2))


# ---------------------------------------------------------------------------
# large-radius tails
# ---------------------------------------------------------------------------

def _power_tail_diverges(shape: float, N: int) -> bool:
    """Whether psi ~ amp r^shape leaves 1/psi^(N-1) not integrable at
    infinity, shape (N-1) <= 1, decided to 1e-12."""
    return shape * (N - 1) <= 1.0 + 1e-12


def _power_q_at_infinity(N: int, p: float, shape: float, amp: float) -> float:
    """Limit of Q = W^(1/p) T^(1/2) at infinity under psi ~ amp r^shape: with
    g = shape (N-1), Q ~ r^e_q, e_q = (g+1)/p - (g-1)/2, so the limit is inf
    for e_q > 0 (and on a divergent tail), 0 for e_q < 0, and at e_q = 0
    (to 1e-12) amp^((N-1)(1/p - 1/2)) (g+1)^(-1/p) (g-1)^(-1/2)."""
    if _power_tail_diverges(shape, N):
        return math.inf
    g = shape * (N - 1.0)
    e_q = (g + 1.0) / p - (g - 1.0) / 2.0
    if e_q > 1e-12:
        return math.inf
    if e_q < -1e-12:
        return 0.0
    return amp ** ((N - 1.0) * (1.0 / p - 0.5)) * (g + 1.0) ** (-1.0 / p) * (g - 1.0) ** -0.5


def _tail_quadrature(profile, model) -> float:
    """Integral of psi^(1-N) over (Rmax, infinity) from a closed-form log psi.

    With n = N - 1 and r = Rmax e^t it is Rmax / w(Rmax), w the model's
    weight, times the integral over t > 0 of f(t) = exp(t - n (log psi(r) -
    log psi(Rmax))), which is 1 at t = 0 and falls at the local rate
    lam = n r (log psi)' - 1.
    f is summed by GL5 on panels of width 0.25 / max(lam(Rmax), 2), each run
    of panels in one call of ``logpsi``, until a panel's mean of f is below
    e^-40 of the running sum; the power law f / lam at the last panel end
    closes the sum.  Anchored at psi(Rmax), neither f nor the sum leaves the
    float64 range.  When r would overflow or the panel cap is reached first,
    the closure is exact only if the power has settled, lam changing by at
    most 1e-12 (lam + 1) over the last panel, as that of psi ~ r^q1 (1 +
    O(r^(q2 - q1))) has long before r = 1e308.  Otherwise, or when the sum
    is not finite (a NaN log psi), NumericalError.  The ``tail_integral``
    of :class:`PowerLaw` wherever it converges.
    """
    n, R = model.N - 1.0, model.Rmax
    yR = float(profile.logpsi(np.float64(R)))

    def f(t):
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(t - n * (np.asarray(profile.logpsi(R * np.exp(t)), float) - yR))

    def rate(t):
        r = np.float64(R * math.exp(t))
        return n * r * float(profile.dlogpsi(r)) - 1.0

    lam = rate(0.0)
    if not math.isfinite(lam):
        raise NumericalError(f"(log psi)' is not finite at Rmax = {R:.6g}")
    h = 0.25 / max(lam, 2.0)
    last = min(_TAIL_PANELS, int((math.log(np.finfo(float).max) - math.log(R) - 1.0) / h))
    total, done, chunk, stopped = 0.0, 0, 256, False
    while done < last and not stopped and math.isfinite(total):
        k = np.arange(done, min(done + chunk, last))
        panels = _gl5(f, (k + 0.5) * h, 0.5 * h)
        running = total + np.cumsum(panels)  # a NaN panel stops no sum: it leaves NaN
        ends = panels < _TAIL_STOP * h * running
        stopped = bool(np.any(ends))
        j = int(np.argmax(ends)) if stopped else len(k) - 1
        total, done, chunk = float(running[j]), int(k[j]) + 1, 2 * chunk
    lam = rate(done * h)
    closure = float(f(np.float64(done * h))) / lam if lam > 0.0 else math.inf
    settled = abs(lam - rate((done - 1) * h)) <= _TAIL_SETTLED * (lam + 1.0)
    if not (math.isfinite(total + closure) and (stopped or settled)):
        raise NumericalError(f"tail integral past Rmax = {R:.6g} is not finite or not "
                             f"settled at r = {R * math.exp(done * h):.3g}")
    return R * math.exp(-float(model.log_weight(R))) * (total + closure)


# ---------------------------------------------------------------------------
# curvature profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    """Constant curvature law K = k (k = 0 is flat, k > 0 hyperbolic-like)."""

    k: float

    def __post_init__(self):
        if not 0.0 <= self.k < math.inf:
            raise ValidationError(f"constant curvature needs finite k >= 0, got {self.k}")

    flat_cap = 0.0

    def curvature(self, r):
        return np.full_like(np.asarray(r, float), float(self.k))

    def tail_integral(self, model) -> float:
        """Exact T(Rmax).  Flat, T = Rmax^(2-N) / (N-2) = Rmax / (w(Rmax)
        (N-2)), and inf at N = 2.  For k > 0, with s = sqrt(k), n = N - 1
        and q = exp(-2 s Rmax), expanding psi^(-n) in powers of exp(-2 s r)
        integrates to T = psi(Rmax)^(-n) (1-q)^n sum_j C(n-1+j, j) q^j /
        ((n+2j) s).  By Euler's transformation of this hypergeometric series,
        T = psi(Rmax)^(-n) (1-q) / (n s) * sum_j (1-n/2)_j / (1+n/2)_j q^j: a
        polynomial for even n, else summed while q^j > e^(-37)."""
        n, R = model.N - 1, model.Rmax
        if self.k == 0.0:
            if _power_tail_diverges(1.0, model.N):
                return math.inf
            return R * math.exp(-float(model.log_weight(R))) / (n - 1.0)
        s = math.sqrt(self.k)
        terms = n // 2 if n % 2 == 0 else int(math.ceil(18.5 / (s * R))) + 1
        if terms > 10 ** 6:
            raise ValidationError(f"sqrt(k) Rmax = {s * R:.3g} is too small for the tail series")
        j = np.arange(terms - 1)
        series = 1.0 + math.fsum(np.cumprod((j + 1.0 - n / 2.0) / (j + 1.0 + n / 2.0)
                                            * math.exp(-2.0 * s * R)))
        return math.exp(-float(model.log_weight(R))) * -math.expm1(-2.0 * s * R) / (n * s) * series

    def q_at_infinity(self, N: int, p: float) -> float:
        """Flat, the power tail psi = r.  For k > 0, psi ~ e^(sqrt(k) r) / (2
        sqrt(k)) makes Q tend to 0 for p > 2 and to inf for p < 2, and to
        McKean's bound 1/(sqrt(k) (N-1)) at p = 2 (to 1e-12)."""
        if self.k == 0.0:
            return _power_q_at_infinity(N, p, 1.0, 1.0)
        if p > 2.0:
            return 0.0
        return self.mckean(N)[0] if abs(p - 2.0) <= 1e-12 else math.inf

    # (psi'^2 - 1) / psi^2 = (cosh^2 - 1) / (sinh / sqrt(k))^2 = k
    tangential_curvature = curvature

    # what the law implies (module docstring): McKean's bounds for k > 0,
    # and the flat predictions at k = 0
    lemma31 = None

    def barrier(self, r):
        """psi'/psi = sqrt(k) coth(sqrt(k) r) >= sqrt(k) (McKean); 1/r when flat."""
        r = np.asarray(r, float)
        if self.k == 0.0:
            with np.errstate(divide="ignore"):
                return 1.0 / r
        return np.full_like(r, math.sqrt(self.k))

    def mckean(self, N: int):
        from .weighted import mckean_bounds
        return mckean_bounds(N, self.k) if self.k > 0.0 else None

    def bound_on_B(self, N: int, p: float) -> float:
        """McKean's 1/(sqrt(k) (N-1)) at p = 2."""
        return self.mckean(N)[0] if self.k > 0.0 and p == 2.0 else math.nan

    @property
    def p_to_2_slope(self):
        """0 for k > 0, where B stays finite as p drops to 2; None when flat,
        where it diverges."""
        return 0.0 if self.k > 0.0 else None

    @property
    def log_fit_beta(self):
        return 0.0 if self.k > 0.0 else None

    def pme_dimension(self, N: int):
        return float(N) if self.k == 0.0 else None

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
    if not 0.0 < k < math.inf:
        raise ValidationError(f"hyperbolic profile needs finite k > 0, got {k}")
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
        if not 0.0 < self.c0 < math.inf:
            raise ValidationError(f"power law needs finite c0 > 0, got {self.c0}")
        if not (0.0 < self.beta <= 2.0):
            raise ValidationError(f"power law needs beta in (0, 2], got {self.beta}")
        if not 0.0 < self.r0 < math.inf:
            raise ValidationError(f"power law needs finite r0 > 0, got {self.r0}")
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

    def tail_integral(self, model) -> float:
        """:func:`_tail_quadrature`, and inf at beta = 2 where the power tail
        psi ~ a1 r^q1 has q1 (N-1) <= 1."""
        if self.beta == 2.0 and _power_tail_diverges(self.exact.q1, model.N):
            return math.inf
        return _tail_quadrature(self, model)

    def q_at_infinity(self, N: int, p: float) -> float:
        """For beta < 2, log psi ~ (2 sqrt(c0) / (2 - beta)) r^(1 - beta/2)
        makes Q tend to 0 for p > 2 and to inf for p <= 2; at beta = 2 the
        power tail psi ~ a1 r^q1, q1 (q1 - 1) = c0, decides."""
        if self.beta < 2.0:
            return 0.0 if p > 2.0 else math.inf
        return _power_q_at_infinity(N, p, self.exact.q1, self.exact.a1)

    # what the law implies (module docstring): lemma 3.1 and 4.1 for
    # beta < 2, lemma 4.2 and the effective dimension at beta = 2
    @property
    def lemma31(self):
        """(c, r0) with psi'/psi >= c r^(-beta/2) for r >= r0 when beta < 2.

        c = min(sqrt(c0), r0^(beta/2 - 1)), r0 the cap radius.  Proof: past
        the cap z = psi'/psi solves z' = c0 r^(-beta) - z^2 with z(r0) = 1/r0.
        The barrier b = c r^(-beta/2) has b' <= 0 <= (c0 - c^2) r^(-beta) =
        c0 r^(-beta) - b^2 when c^2 <= c0, so it is a subsolution, and b(r0) =
        c r0^(-beta/2) <= 1/r0 = z(r0); hence z >= b on [r0, infinity).  No
        grid is read, so :func:`check_comparison` tests the built warping
        against an independent prediction.
        """
        if self.beta == 2.0:
            return None
        return min(math.sqrt(self.c0), self.r0 ** (self.beta / 2.0 - 1.0)), self.r0

    @property
    def lemma42(self):
        """(c, c', q, r0) with psi'/psi >= c/r - c'/r^q for r >= r0 at beta = 2.

        From the two-power glue: psi'/psi = (q1 - (q1 - q2) rho) / r +
        (q1 - q2) rho^2 / (r (1 + rho)) with rho = (a2/a1) r^(q2 - q1), so c =
        q1, c' = (q1 - q2) a2 / a1 and q = 1 + q1 - q2; a2 > 0 for c0 > 0.
        """
        if self.beta < 2.0:
            return None
        glue = self.exact
        return glue.q1, (glue.q1 - glue.q2) * glue.a2 / glue.a1, 1.0 + glue.q1 - glue.q2, self.r0

    def barrier(self, r):
        """The lower bound on psi'/psi of lemma 3.1 (beta < 2) or 4.2 (beta = 2)
        past r0, -inf on the cap."""
        r = np.asarray(r, float)
        if self.beta < 2.0:
            c, r0 = self.lemma31
            low = lambda q: c * q ** (-self.beta / 2.0)
        else:
            c, cprime, power, r0 = self.lemma42
            low = lambda q: c / q - cprime * q ** -power
        return np.where(r >= r0, low(np.maximum(r, r0)), -np.inf)

    def mckean(self, N: int):
        return None

    def bound_on_B(self, N: int, p: float) -> float:
        """Lemma 4.1 (beta < 2) or 4.2 (beta = 2); nan at an exponent it does
        not admit."""
        from .weighted import lemma41_bound, lemma42_bound
        try:
            if self.beta < 2.0:
                return lemma41_bound(N, self.beta / 2.0, *self.lemma31, p)
            return lemma42_bound(N, *self.lemma42, p)
        except (InvalidExponent, BelowCriticalExponent):
            return math.nan

    @property
    def p_to_2_slope(self):
        """-beta/(2 - beta); None at beta = 2, where B diverges at p = 2."""
        return -self.beta / (2.0 - self.beta) if self.beta < 2.0 else None

    @property
    def log_fit_beta(self):
        return self.beta if self.beta < 2.0 else None

    def pme_dimension(self, N: int):
        """Ntilde at beta = 2, with c0 the quadratic amplitude."""
        if self.beta < 2.0:
            return None
        from .weighted import critical_exponents
        return critical_exponents(N, self.c0)[0]


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

    finite term by term until ive and kve turn NaN past x ~ 1.07e9.
    """

    def __init__(self, c0: float, beta: float, r0: float):
        self.beta, self.m = beta, 1.0 - beta / 2.0
        self.sqrt_c0, self.nu = math.sqrt(c0), 0.5 / self.m
        self.rate = self.sqrt_c0 / self.m
        self.x0 = x0 = self.rate * r0 ** self.m
        i0, k0 = ive(self.nu, x0), kve(self.nu, x0)
        i1, k1 = ive(self.nu - 1.0, x0), kve(self.nu - 1.0, x0)
        slope = r0 ** ((beta - 1.0) / 2.0) / self.sqrt_c0  # psi' bracket giving psi'(r0) = 1
        with np.errstate(invalid="ignore", divide="ignore"):  # ive underflows, kve overflows
            det = i0 * k1 + k0 * i1
            self.a = (math.sqrt(r0) * k1 + slope * k0) / det
            self.b = (math.sqrt(r0) * i1 - slope * i0) / det
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise NumericalError(f"Bessel glue of c0 = {c0:g}, beta = {beta:g} "
                                 f"(nu = {self.nu:.6g}) is not finite in float64")

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


def QuasiEuclideanOptimal(c1: float, r0: float = 1.0) -> PowerLaw:
    """Quadratic decay K = c1 r^(-2) outside r0: the power law at beta = 2."""
    return PowerLaw(c1, 2.0, r0)


CurvatureProfile = Union[Constant, PowerLaw]


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
        if a >= 1.0:
            raise ValidationError("a graded grid is geometric below r = 1, so its start "
                                  "must lie below 1; use --grid-kind log")
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

    Evaluation methods accept scalars or arrays in [0, Rmax].  ``grid_r`` is
    the radius column of the export table; :meth:`table` evaluates psi and
    psi' on it when called, not when the model is built.  ``warping``
    evaluates psi, psi', log psi, psi'/psi and K: the profile itself when it
    has a closed form, else a :class:`_LogSpline`.  N, an integer >= 2, is
    stored as an ``int``.  :meth:`log_weight` is the only place where the
    weight psi^(N-1) is formed.  ``built_by`` is ``"closed"`` or ``"ode"``.
    """

    profile: CurvatureProfile
    N: int
    Rmax: float
    grid_r: np.ndarray
    built_by: str
    warping: object

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or self.N < 2:
            raise ValidationError(f"dimension must be an integer >= 2, got {self.N}")
        self.N = int(self.N)

    def _check(self, r):
        r = np.asarray(r, float)
        hi = self.Rmax * (1 + 1e-12)
        if r.ndim == 0:  # as a float: two np.any calls on one radius cost ten times more
            bad = float(r) < 0 or float(r) > hi
        else:
            bad = np.any(r < 0) or np.any(r > hi)
        if bad:
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

    def log_weight(self, r):
        """(N - 1) log psi(r), the log of the weight w = psi^(N-1)."""
        return (self.N - 1.0) * np.asarray(self.logpsi(r), float)

    def curvature(self, r):
        """K(r) = psi''/psi; the radial sectional curvature is -K."""
        return self.warping.curvature(self._check(r))

    def table(self):
        """Columns (r, psi, psi') of the export table, whose first row holds
        the exact origin values.

        Refuses a table that overflows float64, naming the first radius
        where psi or psi' is not finite.
        """
        with np.errstate(over="ignore"):  # refused below
            gp = np.asarray(self.warping.psi(self.grid_r), float)
            gdp = np.asarray(self.warping.dpsi(self.grid_r), float)
        gp[0], gdp[0] = 0.0, 1.0
        bad = ~(np.isfinite(gp) & np.isfinite(gdp))
        if np.any(bad):
            raise ValidationError(
                f"warping table overflows float64 at r = {self.grid_r[np.argmax(bad)]:.6g}; "
                "reduce Rmax or the curvature scale")
        return self.grid_r, gp, gdp


@dataclass(frozen=True)
class CurvatureReport:
    r: float
    sect_radial: float
    ric_radial: float
    ric_tangential: float
    laplacian_density: float


class _LogSpline:
    """Warping interpolated from node values of y = log psi and z = psi'/psi.

    y is the cubic Hermite spline through (y, z), z the one through
    (z, K - z^2) for the curvature law K, and K stays the law.  Below the
    first node psi continues linearly through its value there, y = log r +
    const and z = 1/r.
    """

    def __init__(self, r, y, z, K):
        from scipy.interpolate import CubicHermiteSpline

        self.r1 = float(r[0])
        self.y_shift = float(y[0]) - math.log(self.r1)
        self.y_spl = CubicHermiteSpline(r, y, z)
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


def _series_start(K0: float, r: float):
    # psi = r + K0 r^3 / 6 + O(r^5) near the pole
    y = math.log(r) + math.log1p(K0 * r * r / 6.0)
    z = (1.0 + K0 * r * r / 2.0) / (r * (1.0 + K0 * r * r / 6.0))
    return y, z


def _integrate_profile(profile, rmax, r_a, n_nodes) -> _LogSpline:
    """Integrate y' = z, z' = K - z^2 from r_a and spline the result."""
    from scipy.integrate import solve_ivp

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
    spline = _LogSpline(nodes, yv, zv, Kf)
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

    return ModelFunction(profile=profile, N=N, Rmax=float(Rmax),
                         grid_r=np.concatenate([[0.0], grid.nodes(Rmax)]),
                         built_by=built_by, warping=warping)


# ---------------------------------------------------------------------------
# curvature queries
# ---------------------------------------------------------------------------

def _curvature_terms(model: ModelFunction, r):
    """(K, z = psi'/psi, psi^(-2), tangential Ricci) at r from one call each of
    ``curvature``, ``dlogpsi`` and ``logpsi``.  The tangential Ricci curvature
    is -K - (N-2) (psi'^2 - 1) / psi^2, whose excess (psi'^2 - 1) / psi^2 is
    exact from a warping's ``tangential_curvature`` (k for :class:`Constant`)
    and 0 on the flat cap psi = r; elsewhere it is z^2 - psi^(-2), where both
    terms grow like 1/r^2 near the pole.
    """
    r = np.asarray(r, float)  # the first call below checks it
    K = np.asarray(model.curvature(r), float)
    z = np.asarray(model.dlogpsi(r), float)
    inv_psi2 = np.exp(-2.0 * np.asarray(model.logpsi(r), float))
    exact = getattr(model.warping, "tangential_curvature", None)
    excess = (exact(r) if exact is not None
              else np.where(r <= model.profile.flat_cap, 0.0, z * z - inv_psi2))
    return K, z, inv_psi2, -K - (model.N - 2) * excess


def curvature_at(model: ModelFunction, r: float) -> CurvatureReport:
    """All pointwise curvature data at radius r in (0, Rmax]."""
    if not (0.0 < r <= model.Rmax * (1 + 1e-12)):
        raise OutOfDomain(f"radius {r} outside (0, {model.Rmax}]")
    K, z, _, ric_tangential = map(float, _curvature_terms(model, np.float64(r)))
    return CurvatureReport(
        r=float(r),
        sect_radial=-K,
        ric_radial=-(model.N - 1) * K,
        ric_tangential=ric_tangential,
        laplacian_density=(model.N - 1) * z,
    )


def is_cartan_hadamard(model: ModelFunction):
    """(flag, first violation radius): nonpositive sectional curvature check.

    True iff K(r) >= 0 on the whole sampled range; otherwise the smallest
    radius where K dips negative is reported.
    """
    r = model.grid_r[1:]
    K = np.asarray(model.curvature(r), float)
    thresh = -_CH_TOL * max(1.0, float(np.max(np.abs(K))))
    bad = K < thresh
    if not np.any(bad):
        return True, None
    return False, float(r[np.argmax(bad)])


@dataclass(frozen=True)
class ComparisonReport:
    holds: bool
    fail_interval: Optional[tuple]


def check_comparison(model: ModelFunction, barrier) -> ComparisonReport:
    """Verify psi'/psi >= barrier(r) at every grid radius, to 1e-12 relative.

    ``barrier`` maps radii to lower bounds on psi'/psi, -inf where it claims
    nothing; a law's own is its ``barrier`` (lemma 3.1 for a power law with
    beta < 2).  The report gives the longest contiguous failing radius
    interval, if any.
    """
    r = model.grid_r[1:]
    ok = np.asarray(model.dlogpsi(r), float) >= np.asarray(barrier(r), float) * (1 - 1e-12)
    holds = bool(np.all(ok))
    interval = None
    if not holds:
        # longest run of failures
        idx = np.flatnonzero(np.diff(np.concatenate([[0], (~ok).view(np.int8), [0]])))
        starts, ends = idx[0::2], idx[1::2]
        j = np.argmax(ends - starts)
        interval = (float(r[starts[j]]), float(r[ends[j] - 1]))
    return ComparisonReport(holds=holds, fail_interval=interval)


def ricci_uniformization(model: ModelFunction, R: float,
                         allow_constant: bool = False) -> float:
    """Radius scale G(R) with Ricci >= -(N-1)/G(R)^2 outside the ball of radius R.

    G is computed from the grid supremum of both Ricci eigenvalue magnitudes
    past R, taken in one :func:`_curvature_terms` pass, so it is the largest
    admissible scale and is nondecreasing in R.  Unless ``allow_constant`` is
    set, the curvature must vanish at large radius: the supremum over r >= 0.8
    Rmax (never empty, as the grid ends at Rmax) must stay below 0.9 of it.
    """
    if not (0.0 < R <= 0.8 * model.Rmax):
        raise OutOfDomain(f"need 0 < R <= 0.8 Rmax = {0.8 * model.Rmax:.6g}")
    r = model.grid_r[1:]
    rr = np.concatenate([[R], r[r > R]])
    K, z, inv_psi2, ric_tangential = _curvature_terms(model, rr)
    lam_pt = np.maximum((model.N - 1) * K, np.maximum(-ric_tangential, 0.0))
    lam = float(np.max(lam_pt))
    # cancellation noise floor: z^2 - 1/psi^2 is a difference of near-equal terms
    floor = 1e-12 * float(np.max(z * z + inv_psi2 + K))
    if lam <= floor:
        raise FlatProfile("Ricci curvature vanishes identically beyond R")
    if not allow_constant:
        lam_tail = float(np.max(lam_pt[rr >= 0.8 * model.Rmax]))
        if lam_tail > 0.9 * lam:
            raise CurvatureNotVanishing(
                "Ricci curvature does not decay beyond R; "
                "pass allow_constant=True to accept a constant bound")
    return math.sqrt((model.N - 1) / lam)
