import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import iv, ivp, kv, kvp

from hadamard_ineq import geometry as geo
from hadamard_ineq import pme
from hadamard_ineq import weighted as wgt
from hadamard_ineq.errors import (
    BelowCriticalExponent,
    DivergentPoint,
    InvalidExponent,
    NumericalError,
    ValidationError,
)


# ---------------------------------------------------------------------------
# W and T tables
# ---------------------------------------------------------------------------

def test_euclidean_integrals(euclidean_weight):
    for r in (0.5, 1.0, 7.0, 30.0):
        assert float(euclidean_weight.W_at(r)) == pytest.approx(r ** 3 / 3, rel=1e-12)
        assert float(euclidean_weight.T_at(r)) == pytest.approx(1.0 / r, rel=1e-10)


def test_hyperbolic_integrals(hyperbolic_weight):
    # antiderivatives: int sinh^2 = (sinh cosh - r)/2, int csch^2 = coth - 1
    for r in (0.5, 1.0, 3.0, 10.0):
        W_exact = (math.sinh(r) * math.cosh(r) - r) / 2
        T_exact = 1.0 / math.tanh(r) - 1.0
        assert float(hyperbolic_weight.W_at(r)) == pytest.approx(W_exact, rel=1e-10)
        assert float(hyperbolic_weight.T_at(r)) == pytest.approx(T_exact, rel=1e-9)


def test_T_below_the_first_node():
    # on a flat cap psi(s) = s psi(r1)/r1 is exact below the first node r1; near
    # the pole of sinh it is off by O(r1^2), and 1/w is singular at r = 0
    for N, exact in ((3, lambda r: 1.0 / math.tanh(r) - 1.0),
                     (2, lambda r: -math.log(math.tanh(r / 2.0)))):
        weight = wgt.build_weight(geo.build_model(geo.Hyperbolic(1.0), N, 20.0))
        r1 = weight.rgrid[1]
        assert r1 == pytest.approx(2e-5)
        for r in (1e-7, 1e-6, 1e-5):
            assert float(weight.T_at(r)) == pytest.approx(exact(r), rel=1e-6)
        assert weight.T_at(0.0) == math.inf
        radii = np.array([0.0, 1e-7, r1, 2.0 * r1, 1.0])
        T = weight.T_at(radii)
        assert T[2] == weight.Ttab[1]
        assert [float(weight.T_at(r)) for r in radii] == T.tolist()


def test_quasi_tail_against_quadrature(quasi_weight):
    # oracle: direct quadrature of the closed-form warping
    a1, a2 = 2.0 / 3.0, 1.0 / 3.0
    for r in (5.0, 50.0):
        oracle = quad(lambda s: (a1 * s ** 2 + a2 / s) ** -2, r, np.inf)[0]
        assert float(quasi_weight.T_at(r)) == pytest.approx(oracle, rel=1e-6)
    # pure quadratic tail: T approaches (a1^-2 / 3) r^-3
    r = 800.0
    assert float(quasi_weight.T_at(r)) * 3 * r ** 3 * a1 ** 2 == pytest.approx(1.0, rel=0.01)


def test_ball_volume(euclidean_weight):
    # flat N=3 ball: 4 pi r^3 / 3
    for r in (1.0, 5.0):
        assert float(euclidean_weight.ball_volume(r)) == pytest.approx(
            4.0 * math.pi * r ** 3 / 3.0, rel=1e-12)


def test_weight_derivative_consistency(hyperbolic_weight):
    # dW/dr = w and dT/dr = -1/w, checked by central differences of the tables
    w = hyperbolic_weight
    for r in (0.7, 2.0, 9.0):
        h = 1e-5 * r
        dW = (float(w.W_at(r + h)) - float(w.W_at(r - h))) / (2 * h)
        dT = (float(w.T_at(r + h)) - float(w.T_at(r - h))) / (2 * h)
        assert dW == pytest.approx(math.sinh(r) ** 2, rel=1e-8)
        assert dT == pytest.approx(-math.sinh(r) ** -2, rel=1e-6)


def test_tail_classification(hyperbolic_weight, power_weight, quasi_weight,
                             euclidean_weight):
    assert hyperbolic_weight.tail.family == "exponential"
    assert hyperbolic_weight.tail.rate == 1.0
    t = power_weight.tail
    assert t.family == "exponential" and t.shape == 0.5
    assert t.rate == pytest.approx(2.0, rel=1e-3)  # sqrt(c0)/(1 - beta/2)
    assert quasi_weight.tail.family == "power"
    assert quasi_weight.tail.shape == 2.0
    assert quasi_weight.tail.amplitude == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert euclidean_weight.tail.family == "power"


def test_power_tail_integral_is_the_closed_form_past_rmax():
    # oracle: psi = sqrt(r) [A I_2(x) + B K_2(x)], x = 4 r^(1/4), for
    # K = r^(-3/2) past r0 = 1, glued to psi = r with scipy's own I, K and
    # their derivatives, then integrated past Rmax
    glue = np.array([[iv(2, 4.0), kv(2, 4.0)],
                     [iv(2, 4.0) / 2 + ivp(2, 4.0), kv(2, 4.0) / 2 + kvp(2, 4.0)]])
    A, B = np.linalg.solve(glue, [1.0, 1.0])

    def psi(r):
        x = 4.0 * r ** 0.25
        return math.sqrt(r) * (A * iv(2, x) + B * kv(2, x))

    R = 2000.0
    oracle = sum(quad(lambda r: psi(r) ** -2, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                 for lo, hi in ((R, 2 * R), (2 * R, math.inf)))
    weight = wgt.build_weight(geo.build_model(geo.PowerLaw(1.0, 1.5, 1.0), 3, R))
    assert float(weight.T_at(R)) == pytest.approx(oracle, rel=1e-8, abs=0.0)


def test_near_divergent_euler_tail_is_its_series():
    # K = c0 r^-2 past r0 = 1, N = 2: psi = A r^q1 + B r^q2 with q (q - 1) = c0,
    # so 1/psi ~ r^(-q1) and T(R) = sum_j (-B/A)^j R^(-a_j) / (A a_j),
    # a_j = (q1 - 1) + j (q1 - q2).  At c0 = 0.05, 1/psi ~ r^(-1.048) has not
    # decayed by e^-40 when r leaves float64; at c0 = 1e-4 most of T lies past it
    R = 2.0
    for c0, rel in ((0.05, 1e-12), (1e-4, 1e-11)):
        d = math.sqrt(1.0 + 4.0 * c0)
        q1, q2 = (1.0 + d) / 2.0, (1.0 - d) / 2.0
        A, B = (1.0 - q2) / d, (q1 - 1.0) / d
        series = math.fsum((-B / A) ** j * R ** -(q1 - 1.0 + j * d) / (A * (q1 - 1.0 + j * d))
                           for j in range(40))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tail, t_end = geo.tail_past_rmax(geo.build_model(geo.PowerLaw(c0, 2.0, 1.0), 2, R))
        assert tail.family == "power"
        assert t_end == pytest.approx(series, rel=rel, abs=0.0)
        if c0 == 0.05:
            assert series == pytest.approx(21.17737897652848, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 2.0])
def test_power_tail_agrees_across_rmax(beta):
    # T(130) closed past Rmax = 130 equals T(130) tabulated on [130, 2000] and closed there
    law = geo.PowerLaw(1.0, beta, 1.0)
    _, t130 = geo.tail_past_rmax(geo.build_model(law, 2, 130.0))
    far = wgt.build_weight(geo.build_model(law, 2, 2000.0))
    assert float(far.T_at(130.0)) == pytest.approx(t130, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("law, N", [(geo.PowerLaw(1.0, 1.0, 0.25), 3),
                                     (geo.PowerLaw(2.0, 2.0, 0.5), 3),
                                     (geo.PowerLaw(1.0, 1.5, 0.1), 2)])
def test_power_tail_past_an_rmax_below_one(law, N):
    # log(float max / Rmax) overflowed in the division for Rmax < 1
    _, t09 = geo.tail_past_rmax(geo.build_model(law, N, 0.9))
    far = wgt.build_weight(geo.build_model(law, N, 130.0))
    assert t09 == pytest.approx(float(far.T_at(0.9)), rel=1e-12, abs=0.0)


class _NanPastTen(geo.PowerLaw):
    """The power law with a log psi that is NaN past r = 10."""

    def logpsi(self, r):
        return np.where(np.asarray(r) > 10.0, np.nan, super().logpsi(r))


class _LogSquaredTail(geo.PowerLaw):
    """The power law with its tail replaced by psi = r log(r)^2."""

    def logpsi(self, r):
        return np.log(r) + 2.0 * np.log(np.log(r))

    def dlogpsi(self, r):
        return (1.0 + 2.0 / np.log(r)) / r


@pytest.mark.parametrize("profile, N", [
    # 1/psi = 1/(r log(r)^2) is integrable, but past r = 1e308 it still holds
    # 1/709 of T, and its power never settles
    (_LogSquaredTail(1.0, 1.0, 1.0), 2),
    (_NanPastTen(1.0, 1.0, 1.0), 3),
], ids=["unsettled_past_float64", "nan_logpsi"])
def test_power_tail_that_cannot_be_summed_is_refused(profile, N):
    with pytest.raises(NumericalError):
        geo.tail_past_rmax(geo.build_model(profile, N, 5.0))


def test_divergent_tails():
    weight = wgt.build_weight(geo.build_model(geo.Euclidean(), 2, 30.0))
    assert weight.tail.family == "divergent"
    rep = wgt.supremum_B(weight, 2.5)
    assert (rep.B, rep.divergent, rep.at_infinity) == (math.inf, True, False)
    assert rep.search_trace["evaluations"] == 0
    assert np.all(np.isinf(wgt.Q_at(weight, 2.5, [0.5, 5.0, 25.0])))
    with pytest.raises(ValidationError, match="divergent"):
        wgt.near_extremal(weight, rep)


def test_flat_tail_is_its_closed_form():
    # psi = r: T(R) = R^(2-N) / (N-2) for N >= 3, and N = 2 diverges
    for N in (3, 4, 5):
        for R in (0.5, 20.0, 1e4):
            _, t_end = geo.tail_past_rmax(geo.build_model(geo.Euclidean(), N, R))
            assert t_end == pytest.approx(R ** (2 - N) / (N - 2), rel=1e-14, abs=0.0)
    tail, t_end = geo.tail_past_rmax(geo.build_model(geo.Euclidean(), 2, 20.0))
    assert (tail.family, t_end) == ("divergent", math.inf)


def test_every_weight_is_read_from_log_weight(monkeypatch):
    # adding log 2 to the one log weight doubles W, the ball volumes and the
    # cell volumes, and halves T and its tail T(Rmax), on every tail family
    models = [geo.build_model(geo.Euclidean(), 3, 20.0),
              geo.build_model(geo.Hyperbolic(1.0), 3, 10.0),
              geo.build_model(geo.PowerLaw(1.0, 1.0, 1.0), 3, 200.0)]
    r = np.array([0.3, 2.0, 7.5])

    def measures(model):
        weight = wgt.build_weight(model)
        return (weight.W_at(r), weight.ball_volume(r),
                weight.T_at(r), geo.tail_past_rmax(model)[1])

    def mass0():
        config = pme.PMEConfig(m=2.0, model=models[0], R_domain=10.0,
                               initial=pme.Characteristic(1.0), t_end=1e-3,
                               n_cells=100, output_times=[1e-3])
        return pme.pme_run(config).states[0].mass

    before, mass_before = [measures(m) for m in models], mass0()
    log_weight = geo.ModelFunction.log_weight
    monkeypatch.setattr(geo.ModelFunction, "log_weight",
                        lambda self, r: log_weight(self, r) + math.log(2.0))
    after, mass_after = [measures(m) for m in models], mass0()
    for (W0, V0, T0, t0), (W1, V1, T1, t1) in zip(before, after):
        assert W1 == pytest.approx(2.0 * W0, rel=1e-13, abs=0.0)
        assert V1 == pytest.approx(2.0 * V0, rel=1e-13, abs=0.0)
        assert T1 == pytest.approx(0.5 * T0, rel=1e-13, abs=0.0)
        assert t1 == pytest.approx(0.5 * t0, rel=1e-13, abs=0.0)
    assert mass_after == pytest.approx(2.0 * mass_before, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("k", [1.0, 4.0])
def test_hyperbolic_tail_integral_is_exact(k):
    # N = 3: T(R) = sqrt(k) (coth(sqrt(k) R) - 1) = 2 sqrt(k) / expm1(2 sqrt(k) R)
    s = math.sqrt(k)
    for R in (0.5, 3.0, 5.0, 20.0):
        _, t_end = geo.tail_past_rmax(geo.build_model(geo.Hyperbolic(k), 3, R))
        assert t_end == pytest.approx(2.0 * s / math.expm1(2.0 * s * R), rel=1e-14, abs=0.0)


def test_hyperbolic_tail_integral_in_even_dimension():
    # odd n = N - 1, where the series does not terminate: N = 2 has
    # T(R) = -log tanh(R / 2), N = 4 is checked against quadrature
    for R in (0.05, 1.0, 6.0):
        _, t2 = geo.tail_past_rmax(geo.build_model(geo.Hyperbolic(1.0), 2, R))
        assert t2 == pytest.approx(-math.log(math.tanh(R / 2.0)), rel=1e-13, abs=0.0)
        _, t4 = geo.tail_past_rmax(geo.build_model(geo.Hyperbolic(1.0), 4, R))
        oracle = quad(lambda r: (math.sinh(R) / math.sinh(r)) ** 3, R, R + 40.0,
                      epsabs=0.0, epsrel=1e-13, limit=200)[0] / math.sinh(R) ** 3
        assert t4 == pytest.approx(oracle, rel=1e-12, abs=0.0)
    with pytest.raises(ValidationError):  # the series would need ~2e7 terms
        geo.tail_past_rmax(geo.build_model(geo.Hyperbolic(1.0), 2, 1e-6))


def test_hyperbolic_supremum_does_not_depend_on_rmax():
    # with T(Rmax) exact, a maximizer inside [0, 3] gives the same B at any Rmax
    reps = [wgt.supremum_B(wgt.build_weight(geo.build_model(geo.Hyperbolic(1.0), 3, R)), 2.5)
            for R in (3.0, 20.0)]
    assert reps[0].r_bar < 3.0
    assert reps[0].B == pytest.approx(reps[1].B, rel=1e-12, abs=0.0)
    # p = 2 keeps its supremum at infinity
    rep = wgt.supremum_B(wgt.build_weight(geo.build_model(geo.Hyperbolic(1.0), 3, 20.0)), 2.0)
    assert rep.at_infinity and rep.r_bar is None


def test_overflow_guard():
    m = geo.build_model(geo.Hyperbolic(1.0), 3, 400.0)
    with pytest.raises(ValidationError):
        wgt.build_weight(m)


# ---------------------------------------------------------------------------
# Q and its supremum
# ---------------------------------------------------------------------------

def test_Q_values(euclidean_weight, hyperbolic_weight):
    # flat N=3, p=6: Q is the constant 3^(-1/6)
    for r in (0.3, 3.0, 30.0):
        assert float(wgt.Q_at(euclidean_weight, 6.0, r)) == pytest.approx(
            3.0 ** (-1.0 / 6.0), rel=1e-10)
    # curved value at r=1 from the closed-form integrals
    W1 = (math.sinh(1) * math.cosh(1) - 1) / 2
    T1 = 1 / math.tanh(1) - 1
    assert float(wgt.Q_at(hyperbolic_weight, 2.0, 1.0)) == pytest.approx(
        math.sqrt(W1 * T1), rel=1e-9)
    assert math.sqrt(W1 * T1) == pytest.approx(0.3568, abs=2e-4)
    # flat N=3, p=2: Q = r/sqrt(3), unbounded
    for r in (1.0, 10.0):
        assert float(wgt.Q_at(euclidean_weight, 2.0, r)) == pytest.approx(
            r / math.sqrt(3), rel=1e-10)


def test_supremum_hyperbolic_poincare(hyperbolic_weight):
    rep = wgt.supremum_B(hyperbolic_weight, 2.0)
    assert rep.B == pytest.approx(0.5, abs=1e-6)
    assert rep.at_infinity and not rep.divergent
    assert rep.sandwich_upper == pytest.approx(1.0, abs=1e-6)


def test_supremum_euclidean(euclidean_weight):
    rep = wgt.supremum_B(euclidean_weight, 6.0)
    assert rep.B == pytest.approx(3.0 ** (-1.0 / 6.0), rel=1e-9)
    rep2 = wgt.supremum_B(euclidean_weight, 2.0)
    assert rep2.divergent and math.isinf(rep2.B)


def test_supremum_critical_point_identity(power_weight):
    for p in (2.05, 2.1, 2.3):
        rep = wgt.supremum_B(power_weight, p)
        assert not rep.divergent and rep.r_bar is not None
        assert rep.crit_residual < 1e-6
        # independent restatement: T = p W / (2 psi^(2(N-1)))
        r = rep.r_bar
        lhs = float(power_weight.T_at(r))
        rhs = p * float(power_weight.W_at(r)) / (
            2.0 * float(power_weight.model.psi(np.float64(r))) ** 4)
        assert lhs == pytest.approx(rhs, rel=1e-6)


def test_quasi_threshold(quasi_weight):
    ntilde, two_tilde = wgt.critical_exponents(3, 2.0)
    assert (ntilde, two_tilde) == (5.0, pytest.approx(10.0 / 3.0))
    for p in (2.5, 3.0, 3.2):
        assert wgt.supremum_B(quasi_weight, p).divergent
    for p in (10.0 / 3.0, 3.5, 4.0, 6.0):
        rep = wgt.supremum_B(quasi_weight, p)
        assert not rep.divergent and rep.B > 0


def _scalar_golden_search(weight, p, n_scan=512, tol=1e-10):
    """The supremum search refining one bracket at a time, as a test oracle."""
    G = (math.sqrt(5.0) - 1.0) / 2.0

    def f(x):
        r = np.float64(math.exp(x))
        return float(np.log(weight.W_at(r)) / p + 0.5 * np.log(weight.T_at(r)))

    pts = np.geomspace(weight.rgrid[1], weight.Rmax, n_scan)
    with np.errstate(divide="ignore", invalid="ignore"):
        lq = (np.log(np.maximum(weight.W_at(pts), 0.0)) / p
              + 0.5 * np.log(np.maximum(weight.T_at(pts), 0.0)))
    lq = np.where(np.isnan(lq), -math.inf, lq)
    evals, depth, best_val, best_r = n_scan, 0, -math.inf, None
    for i in 1 + np.flatnonzero((lq[1:-1] >= lq[:-2]) & (lq[1:-1] >= lq[2:])):
        if not np.isfinite(lq[i]):
            continue
        a, b = math.log(pts[i - 1]), math.log(pts[i + 1])
        x1, x2 = b - G * (b - a), a + G * (b - a)
        f1, f2, n = f(x1), f(x2), 2
        while (b - a) > tol * max(1.0, abs(a) + abs(b)) and n <= 300:
            if f1 < f2:
                a, x1, f1 = x1, x2, f2
                x2 = a + G * (b - a)
                f2 = f(x2)
            else:
                b, x2, f2 = x2, x1, f1
                x1 = b - G * (b - a)
                f1 = f(x1)
            n += 1
        evals, depth = evals + n, max(depth, n)
        if max(f1, f2) > best_val:
            best_val, best_r = max(f1, f2), math.exp(0.5 * (a + b))
    return best_val, best_r, {"evaluations": evals, "refinement_depth": depth}


@pytest.mark.parametrize("fixture_name, p", [
    ("euclidean_weight", 6.0),  # Q is a plateau: 286 brackets
    ("power_weight", 2.1),
    ("quasi_weight", 4.0),
    ("hyperbolic_weight", 2.0),
])
def test_lockstep_search_matches_scalar_oracle(request, fixture_name, p):
    weight = request.getfixturevalue(fixture_name)
    rep = wgt.supremum_B(weight, p)
    best_val, best_r, trace = _scalar_golden_search(weight, p)
    assert rep.search_trace == trace
    if rep.at_infinity:
        assert rep.r_bar is None and rep.crit_residual is None
        assert rep.B == max(math.exp(best_val), wgt._limit_infinity(weight, p))
        return
    assert (rep.B, rep.r_bar) == (math.exp(best_val), best_r)
    N, r = weight.N, np.float64(best_r)
    lnrhs = (math.log(p / 2.0) + float(np.log(weight.W_at(r)))
             - 2.0 * (N - 1.0) * float(weight.model.logpsi(r)))
    assert rep.crit_residual == abs(1.0 - math.exp(lnrhs - float(np.log(weight.T_at(r)))))


def test_sandwich():
    lo, up = wgt.sandwich(0.5, 2.0)
    assert (lo, up) == (0.5, pytest.approx(1.0))
    B6 = 3.0 ** (-1.0 / 6.0)
    assert wgt.sandwich(B6, 6.0)[1] == pytest.approx(
        4.0 ** (1.0 / 6.0) * (4.0 / 3.0) ** 0.5 * B6, rel=1e-12)
    assert wgt.sandwich(B6, 6.0)[1] == pytest.approx(1.2114, abs=1e-4)
    assert wgt.sandwich_factor(1e8) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValidationError):
        wgt.sandwich(math.inf, 2.0)


# ---------------------------------------------------------------------------
# explicit bounds
# ---------------------------------------------------------------------------

def test_lemma41_bound_dominates(power_model, power_weight):
    c, r0 = power_model.profile.lemma31
    for p in list(np.linspace(2.02, 2.2, 10)) + [2.5, 3.0, 4.0, 5.0, 5.9]:
        bound = wgt.lemma41_bound(3, 0.5, c, r0, float(p))
        b = wgt.supremum_B(power_weight, float(p)).B
        assert bound >= b
    assert math.isfinite(wgt.lemma41_bound(3, 0.5, 1.0, 1.0, 4.0))


def test_explicit_bound_is_nan_only_outside_the_admitted_exponents(monkeypatch):
    power, quasi = geo.PowerLaw(1.0, 1.0, 1.0), geo.QuasiEuclideanOptimal(2.0, 1.0)
    assert math.isnan(power.bound_on_B(3, 2.0)) and math.isnan(power.bound_on_B(3, 6.0))
    assert math.isnan(quasi.bound_on_B(3, 3.0))  # below the threshold 10/3
    assert math.isfinite(power.bound_on_B(3, 2.1)) and math.isfinite(quasi.bound_on_B(3, 4.0))

    def bad_constant(*args):
        raise ValidationError("c and r0 must be positive")
    monkeypatch.setattr(wgt, "lemma41_bound", bad_constant)
    with pytest.raises(ValidationError, match="c and r0"):
        power.bound_on_B(3, 2.1)


def test_lemma41_blowup_rate():
    # (p-2)^(-alpha/(1-alpha)) with alpha = 1/2 gives slope -1 toward p = 2
    pp = 2.0 + np.geomspace(1e-4, 1e-3, 6)
    vals = [wgt.lemma41_bound(3, 0.5, 1.0, 1.0, float(p)) for p in pp]
    slope = np.polyfit(np.log(pp - 2.0), np.log(vals), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.05)


def test_lemma41_validation():
    with pytest.raises(InvalidExponent):
        wgt.lemma41_bound(3, 0.5, 1.0, 1.0, 2.0)
    with pytest.raises(InvalidExponent):
        wgt.lemma41_bound(3, 0.5, 1.0, 1.0, 6.0)
    with pytest.raises(ValidationError):
        wgt.lemma41_bound(3, 1.5, 1.0, 1.0, 3.0)


def test_lemma42_threshold_and_growth():
    assert math.isfinite(wgt.lemma42_bound(3, 2.0, 0.5, 4.0, 1.0, 10.0 / 3.0))
    with pytest.raises(BelowCriticalExponent):
        wgt.lemma42_bound(3, 2.0, 0.5, 4.0, 1.0, 3.0)
    with pytest.raises(ValidationError):
        wgt.lemma42_bound(3, 0.9, 0.5, 4.0, 1.0, 3.5)
    # sqrt(p) growth: value / sqrt(p) varies by < 5% at large p (N = 2)
    pbig = np.geomspace(50.0, 5000.0, 10)
    ratios = [wgt.lemma42_bound(2, 2.0, 0.5, 4.0, 1.0, float(p)) / math.sqrt(p)
              for p in pbig]
    assert (max(ratios) - min(ratios)) / min(ratios) < 0.05


def test_lemma42_dominates_quasi(quasi_model, quasi_weight):
    c, cp, q, r0 = quasi_model.profile.lemma42
    assert c == 2.0 and q == 4.0
    for p in (10.0 / 3.0, 4.0, 5.0):
        bound = wgt.lemma42_bound(3, c, cp, q, r0, p)
        assert bound >= wgt.supremum_B(quasi_weight, p).B


def test_critical_exponents():
    assert wgt.critical_exponents(3, 2.0) == (5.0, pytest.approx(10.0 / 3.0))
    assert wgt.critical_exponents(3, 6.0) == (7.0, pytest.approx(2.8))
    nt, tt = wgt.critical_exponents(3, 1e-12)
    assert nt == pytest.approx(3.0, abs=1e-9)
    assert tt == pytest.approx(6.0, abs=1e-6)  # recovers the critical exponent


def test_mckean_bounds():
    assert wgt.mckean_bounds(3, 1.0) == (0.5, 1.0, 1.0)
    assert wgt.mckean_bounds(2, 4.0) == (0.5, 1.0, 1.0)
    sup_b, poin, gap = wgt.mckean_bounds(5, 2.7)
    assert poin == pytest.approx(1.0 / math.sqrt(gap), rel=1e-12)


# ---------------------------------------------------------------------------
# regression driver
# ---------------------------------------------------------------------------

def _reports(weight, p_values):
    return [wgt.supremum_B(weight, float(p)) for p in p_values]


def test_scaling_regression_near_two(power_weight):
    reports = _reports(power_weight, np.linspace(2.02, 2.2, 10))
    fit = wgt.scaling_regression(reports[::-1], "p_to_2")
    assert fit.slope == pytest.approx(-1.0, abs=0.15)
    # ordered by p, with B taken from the reports as given
    assert np.array_equal(fit.p_values, [rep.p for rep in reports])
    assert np.array_equal(fit.B_values, [rep.B for rep in reports])


def test_scaling_regression_divergent(euclidean_weight):
    with pytest.raises(DivergentPoint):
        wgt.scaling_regression(_reports(euclidean_weight, [2.0, 3.0, 4.0, 5.0, 5.5]),
                               "p_large")


def test_scaling_regression_validation(hyperbolic_weight):
    with pytest.raises(ValidationError):
        wgt.scaling_regression(_reports(hyperbolic_weight, [3.0, 4.0]), "p_large")
    with pytest.raises(ValidationError):
        wgt.scaling_regression(_reports(hyperbolic_weight, [3.0, 4.0, 4.5, 5.0, 5.5]),
                               "bogus")


# ---------------------------------------------------------------------------
# honesty of the enclosure
# ---------------------------------------------------------------------------

def _random_plin(rng, weight):
    n = int(rng.integers(5, 40))
    i0 = int(rng.integers(1, len(weight.rgrid) // 2))
    i1 = int(rng.integers(i0 + 2, min(i0 + 2 + int(rng.integers(1, 2000)),
                                      len(weight.rgrid) - 1)))
    idx = np.unique(rng.integers(i0, i1 + 1, n))
    if len(idx) < 3:
        return None
    r = weight.rgrid[idx]
    g = rng.standard_normal(len(r))
    g[0] = 0.0
    g[-1] = 0.0
    return r, g


@pytest.mark.parametrize("fixture_name, p", [
    ("hyperbolic_weight", 2.0),
    ("quasi_weight", 4.0),
    ("power_weight", 2.1),
])
def test_sandwich_honesty_randomized(request, fixture_name, p):
    weight = request.getfixturevalue(fixture_name)
    rep = wgt.supremum_B(weight, p)
    rng = np.random.default_rng(1234)
    checked = 0
    while checked < 100:
        sample = _random_plin(rng, weight)
        if sample is None:
            continue
        r, g = sample
        grad, pn = wgt.plin_norms(weight, r, g, p)
        if grad == 0.0:
            continue
        assert pn <= rep.sandwich_upper * grad * (1 + 1e-9)
        checked += 1


@pytest.mark.parametrize("fixture_name, p", [
    ("hyperbolic_weight", 2.0),
    ("euclidean_weight", 6.0),
    ("quasi_weight", 4.0),
    ("power_weight", 2.1),
])
def test_near_extremal_attains(request, fixture_name, p):
    weight = request.getfixturevalue(fixture_name)
    rep = wgt.supremum_B(weight, p)
    r, g = wgt.near_extremal(weight, rep)
    grad, pn = wgt.plin_norms(weight, r, g, p)
    assert pn / grad >= 0.95 * rep.B
    assert pn / grad <= rep.sandwich_upper * (1 + 1e-9)


def test_Q_monotonicity_in_p(hyperbolic_weight):
    # W(r)^(1/p) is monotone in p with direction set by sign of log W
    for r in (0.5, 1.0, 3.0, 8.0):
        Wv = float(hyperbolic_weight.W_at(r))
        q_lo = float(wgt.Q_at(hyperbolic_weight, 2.5, r))
        q_hi = float(wgt.Q_at(hyperbolic_weight, 3.5, r))
        if Wv >= 1.0:
            assert q_hi <= q_lo * (1 + 1e-12)
        else:
            assert q_hi >= q_lo * (1 - 1e-12)


def test_quasi_tail_threshold_matches_exponents(quasi_weight):
    # finite iff p >= threshold, by the sign of the large-r exponent of Q
    _, two_tilde = wgt.critical_exponents(3, 2.0)
    eps = 1e-3
    assert wgt.supremum_B(quasi_weight, two_tilde - eps).divergent
    assert not wgt.supremum_B(quasi_weight, two_tilde + eps).divergent


@pytest.mark.parametrize("half", [np.array([0.5, 1.0, 0.25]), 0.75], ids=["array", "scalar"])
def test_gl5_calls_f_once_and_sums_in_node_order(half):
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return np.exp(-x) * x ** 2

    mid = np.array([0.5, 2.0, 3.0])
    got = geo._gl5(f, mid, half)
    assert calls == [(5, 3)]
    ref = np.zeros_like(mid)  # the per-node loop, one call of f per node
    for x, w in zip(geo.GL5_NODES, geo.GL5_WEIGHTS):
        ref = ref + w * f(mid + half * x)
    assert np.array_equal(got, ref * half)


def test_plin_norms_is_exact_far_from_the_pole():
    # w = r^2 and g piecewise linear: GL5 integrates g^2 w exactly, so the L2
    # norm must match the rational integral up to rounding of the sum
    weight = wgt.build_weight(geo.build_model(geo.Euclidean(), 3, 1200.0))
    r = weight.rgrid[(weight.rgrid > 990.0) & (weight.rgrid < 1000.0)]
    g = np.random.default_rng(7).uniform(-1.0, 1.0, r.size)
    g[0] = g[-1] = 0.0
    exact = Fraction(0)
    for a, b, ga, gb in zip(r[:-1], r[1:], g[:-1], g[1:]):
        a, b, ga, gb = map(Fraction, (a, b, ga, gb))
        slope = (gb - ga) / (b - a)
        c = ga - slope * a  # g = c + slope x on [a, b]

        def F(x):
            return c * c * x ** 3 / 3 + c * slope * x ** 4 / 2 + slope * slope * x ** 5 / 5
        exact += F(b) - F(a)
    _, lp = wgt.plin_norms(weight, r, g, 2.0)
    assert lp == pytest.approx(math.sqrt(float(exact)), rel=1e-15, abs=0.0)
