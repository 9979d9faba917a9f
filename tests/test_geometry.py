import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import iv, ivp, kv, kvp

from hadamard_ineq import cli
from hadamard_ineq import geometry as geo
from hadamard_ineq.errors import (
    CurvatureNotVanishing,
    FlatProfile,
    NonHadamardProfile,
    NumericalError,
    OutOfDomain,
    ValidationError,
)


def test_flat_profile_is_identity(euclidean_model):
    r = np.linspace(0.0, 50.0, 101)
    assert np.allclose(euclidean_model.psi(r), r, rtol=1e-14, atol=1e-14)
    assert np.allclose(euclidean_model.dpsi(r), 1.0)


def test_hyperbolic_closed_form(hyperbolic_model):
    r = np.linspace(0.01, 20.0, 200)
    assert np.allclose(hyperbolic_model.psi(r), np.sinh(r), rtol=1e-13)
    assert np.allclose(hyperbolic_model.dpsi(r), np.cosh(r), rtol=1e-13)


def test_hyperbolic_logpsi_keeps_its_digits_at_the_pole(hyperbolic_model):
    # psi'/psi and 1/psi both grow like 1/r, so the tangential Ricci curvature
    # -K - (N-2) (psi'^2 - 1) / psi^2 = -2 needs log psi to full relative accuracy
    r1 = float(hyperbolic_model.grid_r[1])
    assert geo.curvature_at(hyperbolic_model, r1).ric_tangential == pytest.approx(-2.0, abs=1e-5)
    r = np.geomspace(1e-9, 1.0, 50)
    assert np.allclose(geo.Hyperbolic(1.0).logpsi(r), np.log(np.sinh(r)), rtol=1e-14, atol=0)


def test_ode_matches_sinh():
    # independent route: force numerical integration and compare closed form
    m = geo.build_model(geo.Hyperbolic(1.0), 3, 10.0, method="ode")
    r = np.linspace(0.05, 10.0, 400)
    rel = np.abs(m.psi(r) / np.sinh(r) - 1.0)
    assert np.max(rel) < 1e-6
    assert np.max(np.abs(m.dpsi(r) / np.cosh(r) - 1.0)) < 1e-6
    # the export table of an integrated warping, from the pole row on
    rr, psi, dpsi = m.table()
    assert (psi[0], dpsi[0]) == (0.0, 1.0)
    assert np.max(np.abs(psi[1:] / np.sinh(rr[1:]) - 1.0)) < 1e-6
    assert np.max(np.abs(dpsi[1:] / np.cosh(rr[1:]) - 1.0)) < 1e-6


def test_ode_matches_sinh_scaled():
    k = 4.0
    m = geo.build_model(geo.Constant(k), 3, 10.0 / math.sqrt(k), method="ode")
    r = np.linspace(0.05, 10.0 / math.sqrt(k), 300)
    exact = np.sinh(math.sqrt(k) * r) / math.sqrt(k)
    assert np.max(np.abs(m.psi(r) / exact - 1.0)) < 1e-6


def test_quasi_profile_exact_coefficients():
    glue = geo.QuasiEuclideanOptimal(2.0, 1.0).exact
    assert (glue.q1, glue.q2) == (2.0, -1.0)  # roots of q(q-1) = 2
    assert (glue.a1, glue.a2) == (2.0 / 3.0, 1.0 / 3.0)


def test_quasi_profile_is_the_power_law_at_beta_2():
    prof = geo.QuasiEuclideanOptimal(2.0, 1.5)
    assert type(prof) is geo.PowerLaw
    assert prof == geo.PowerLaw(2.0, 2.0, 1.5)
    r = np.linspace(0.5, 40.0, 80)
    assert np.allclose(prof.curvature(r), np.where(r >= 1.5, 2.0 / np.maximum(r, 1.5) ** 2, 0.0),
                       rtol=1e-15, atol=0)


def test_quasi_against_independent_integration():
    # oracle: integrate psi'' = c1 r^-2 psi directly in (psi, psi') variables
    prof = geo.QuasiEuclideanOptimal(2.0, 1.0)
    model = geo.build_model(prof, 3, 100.0)

    def rhs(r, y):
        return [y[1], 2.0 * r ** -2 * y[0]]

    sol = solve_ivp(rhs, (1.0, 100.0), [1.0, 1.0], rtol=1e-12, atol=1e-14,
                    dense_output=True)
    r = np.linspace(2.0, 100.0, 50)
    assert np.max(np.abs(model.psi(r) / sol.sol(r)[0] - 1.0)) < 1e-8


def test_quasi_tail_slope():
    model = geo.build_model(geo.QuasiEuclideanOptimal(2.0, 1.0), 3, 100.0)
    r = np.geomspace(20.0, 100.0, 40)
    slope = np.polyfit(np.log(r), np.log(model.psi(r)), 1)[0]
    assert abs(slope - 2.0) < 0.01


def test_powerlaw_ode_independent_oracle():
    # oracle: direct second-order integration from the cap edge
    prof = geo.PowerLaw(1.0, 1.0, 1.0)
    model = geo.build_model(prof, 3, 200.0)

    def rhs(r, y):
        return [y[1], r ** -1.0 * y[0]]

    sol = solve_ivp(rhs, (1.0, 200.0), [1.0, 1.0], rtol=1e-12, atol=1e-14,
                    dense_output=True)
    r = np.linspace(1.5, 200.0, 80)
    assert np.max(np.abs(model.psi(r) / sol.sol(r)[0] - 1.0)) < 1e-8


def test_curvature_report_hyperbolic(hyperbolic_model):
    rep = geo.curvature_at(hyperbolic_model, 1.0)
    assert math.isclose(rep.sect_radial, -1.0, rel_tol=1e-12)
    assert math.isclose(rep.ric_radial, -2.0, rel_tol=1e-12)
    assert math.isclose(rep.ric_tangential, -2.0, rel_tol=1e-10)
    assert math.isclose(rep.laplacian_density, 2.0 / math.tanh(1.0), rel_tol=1e-12)


def test_tangential_ricci_is_exact_where_a_closed_form_exists():
    # -K - (N-2) (psi'^2 - 1) / psi^2 is -(N-1) k under constant curvature and
    # 0 on a flat cap, though z^2 and psi^-2 each grow like 1/r^2 at the pole
    for k, N in ((1.0, 3), (4.0, 5)):
        model = geo.build_model(geo.Hyperbolic(k), N, 20.0)
        r = model.grid_r[1:]
        assert np.all(geo._ric_tangential(model, r) == -(N - 1) * k)
        assert geo.curvature_at(model, float(r[0])).ric_tangential == -(N - 1) * k
        assert geo.ricci_uniformization(model, 1.0, allow_constant=True) == 1.0 / math.sqrt(k)
    for method in ("auto", "ode"):
        model = geo.build_model(geo.PowerLaw(1.0, 1.0, 2.0), 4, 50.0, method=method)
        r = model.grid_r[1:]
        assert np.all(geo._ric_tangential(model, r[r <= 2.0]) == 0.0)


def test_curvature_queries_evaluate_the_law_once(monkeypatch):
    # K, psi'/psi and log psi feed both Ricci eigenvalues and the Laplacian
    model = geo.build_model(geo.PowerLaw(1.0, 1.0, 1.0), 3, 2000.0)
    calls = {}
    for name in ("curvature", "dlogpsi", "logpsi"):
        def counted(r, name=name, member=getattr(model, name)):
            calls[name] = calls.get(name, 0) + 1
            return member(r)
        monkeypatch.setattr(model, name, counted)
    geo.ricci_uniformization(model, 100.0)
    assert calls == {"curvature": 1, "dlogpsi": 1, "logpsi": 1}
    calls.clear()
    geo.curvature_at(model, 4.0)
    assert calls == {"curvature": 1, "dlogpsi": 1, "logpsi": 1}


def test_export_table_is_tabulated_on_first_read(monkeypatch):
    # only the model export reads psi and psi' on the grid, so building defers them
    calls = {"psi": 0, "dpsi": 0}
    for name in calls:
        def counted(self, r, name=name, member=getattr(geo.PowerLaw, name)):
            calls[name] += 1
            return member(self, r)
        monkeypatch.setattr(geo.PowerLaw, name, counted)
    model = geo.build_model(geo.PowerLaw(1.0, 1.0, 1.0), 3, 2000.0)
    assert calls == {"psi": 0, "dpsi": 0}
    r, psi, dpsi = model.table()
    assert calls == {"psi": 1, "dpsi": 1}
    assert r is model.grid_r and (psi[0], dpsi[0]) == (0.0, 1.0)


def test_sorted_unique_is_np_unique_on_finite_input():
    rng = np.random.default_rng(7)
    cases = [rng.integers(0, 9, 40), rng.integers(-3, 3, 1), np.array([2.5, -0.0, 1e-300, 2.5]),
             np.round(rng.normal(size=200), 1), np.linspace(0, 7, 30).astype(int),
             np.array([], float)]
    for a in cases:
        got, want = geo._sorted_unique(a), np.unique(a)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_gl5_constants_are_the_bits_of_leggauss():
    # every quadrature, and so every output byte, rests on these doubles
    nodes, weights = np.polynomial.legendre.leggauss(5)
    assert geo.GL5_NODES.view("u8").tolist() == nodes.view("u8").tolist()
    assert geo.GL5_WEIGHTS.view("u8").tolist() == weights.view("u8").tolist()


def test_overflowing_warping_table_is_refused_without_warnings():
    # sinh and cosh overflow past r ~ 7.1 at k = 1e4; the table names the radius
    model = geo.build_model(geo.Hyperbolic(1e4), 3, 20.0)
    with pytest.raises(ValidationError, match=r"overflows float64 at r = 7\.10767"):
        model.table()


def test_curvature_report_euclidean(euclidean_model):
    for r in (0.3, 2.0, 17.0):
        rep = geo.curvature_at(euclidean_model, r)
        assert rep.sect_radial == 0.0
        assert math.isclose(rep.laplacian_density, 2.0 / r, rel_tol=1e-12)


def test_curvature_report_powerlaw(power_model):
    rep = geo.curvature_at(power_model, 4.0)
    assert math.isclose(rep.sect_radial, -0.25, rel_tol=1e-12)


def test_curvature_out_of_domain(hyperbolic_model):
    with pytest.raises(OutOfDomain):
        geo.curvature_at(hyperbolic_model, 21.0)
    with pytest.raises(OutOfDomain):
        geo.curvature_at(hyperbolic_model, 0.0)


@pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
def test_radii_outside_the_model_are_refused(hyperbolic_model, as_array):
    R = hyperbolic_model.Rmax

    def psi(r):
        return hyperbolic_model.psi(np.array([0.5, r]) if as_array else r)

    for r in (-1.0, 1.01 * R):
        with pytest.raises(OutOfDomain, match=r"radius outside \[0, 20.0\]"):
            psi(r)
    assert np.all(np.isfinite(psi(R * (1 + 1e-13))))  # within the rounding slack


def test_hadamard_predicate(hyperbolic_model, quasi_model):
    assert geo.is_cartan_hadamard(hyperbolic_model) == (True, None)
    assert geo.is_cartan_hadamard(quasi_model) == (True, None)


def test_negative_curvature_is_not_hadamard():
    # the negated power law, built in closed form: K = -r^(-1) from the cap edge r = 1 on
    m = geo.build_model(_BadLaw(1.0, 1.0, 1.0), 3, 20.0)
    assert m.built_by == "closed"
    assert geo.is_cartan_hadamard(m) == (False, 1.0)
    assert float(m.curvature(np.float64(1.0))) == -1.0


@pytest.mark.parametrize("profile, N", [
    (geo.Hyperbolic(1.0), 3),
    (geo.Hyperbolic(4.0), 2),
    (geo.PowerLaw(1.0, 0.5, 1.0), 3),
    (geo.PowerLaw(1.0, 1.5, 1.0), 3),
    (geo.QuasiEuclideanOptimal(2.0, 1.0), 3),
])
def test_class_membership_invariants(profile, N):
    m = geo.build_model(profile, N, 50.0)
    r, psi, dpsi = m.table()
    assert psi[0] == 0.0 and dpsi[0] == 1.0
    assert np.all(m.psi(r[1:]) >= r[1:] * (1 - 1e-8))
    assert np.all(m.dpsi(r) >= 1 - 1e-8)
    assert np.all(m.curvature(r[1:]) >= 0.0)
    assert np.all(np.diff(psi) > 0)


def test_comparison_mckean(hyperbolic_model, euclidean_model):
    mckean = geo.Hyperbolic(1.0).barrier
    assert geo.check_comparison(hyperbolic_model, mckean).holds
    rep = geo.check_comparison(euclidean_model, mckean)
    assert not rep.holds
    lo, hi = rep.fail_interval
    assert lo == pytest.approx(1.0, rel=0.02)  # 1/r < 1 exactly past r = 1
    assert hi == pytest.approx(euclidean_model.Rmax, rel=1e-6)


def test_comparison_euclidean_bound(power_model, hyperbolic_model):
    euclidean = geo.Euclidean().barrier
    assert geo.check_comparison(power_model, euclidean).holds
    assert geo.check_comparison(hyperbolic_model, euclidean).holds


def test_comparison_weak_ricci_mode(hyperbolic_model, euclidean_model, power_model):
    # the one-directional Ricci route is weaker on models, so it must hold:
    # (N-1) psi'/psi(r) >= s psi'/psi(s r) with s = sqrt(N-1), within Rmax
    for m in (hyperbolic_model, euclidean_model, power_model):
        s = math.sqrt(m.N - 1)

        def weak_ricci(r):
            return np.where(s * r <= m.Rmax,
                            s * m.dlogpsi(np.minimum(s * r, m.Rmax)) / (m.N - 1), -np.inf)
        assert geo.check_comparison(m, weak_ricci).holds


def test_lemma31_scan_and_growth(power_model):
    c, r0 = power_model.profile.lemma31
    assert c > 0 and r0 > 0
    rep = geo.check_comparison(power_model, power_model.profile.barrier)
    assert rep.holds
    # growth floor implied by the certified pair: psi >= kappa exp(2c sqrt(r))
    alpha = 0.5
    kappa = r0 * math.exp(-c / (1 - alpha) * r0 ** (1 - alpha))
    r = np.geomspace(r0, power_model.Rmax, 60)
    lhs = power_model.logpsi(r)
    rhs = math.log(kappa) + c / (1 - alpha) * r ** (1 - alpha)
    assert np.all(lhs >= rhs - 1e-9)


@pytest.mark.parametrize("factor, holds", [(1.0, True), (1.5, False), (1.9, False)])
def test_lemma31_bound_is_checked_on_psi_prime_over_psi(factor, holds):
    # the bound is psi'/psi >= c r^(-beta/2), with no (N-1) factor
    model = geo.build_model(geo.PowerLaw(1.0, 1.0, 1.0), 3, 2000.0)
    _, r0 = model.profile.lemma31
    r = model.grid_r[model.grid_r >= r0]
    inf = float(np.min(model.dlogpsi(r) * np.sqrt(r)))
    rep = geo.check_comparison(
        model, lambda q: np.where(q >= r0, factor * inf / np.sqrt(q), -np.inf))
    assert rep.holds is holds


def test_lemma31_bound_of_a_larger_c0_fails():
    # psi'/psi ~ sqrt(c0) r^(-beta/2) far out, so the c = 2 of c0 = 4 cannot
    # hold on the c0 = 1 law, whose own c = 1 must
    model = geo.build_model(geo.PowerLaw(1.0, 1.0, 0.25), 3, 2000.0)
    larger = geo.PowerLaw(4.0, 1.0, 0.25)
    assert larger.lemma31 == (pytest.approx(2.0), 0.25)
    assert geo.check_comparison(model, larger.barrier).holds is False
    assert model.profile.lemma31 == (pytest.approx(1.0), 0.25)
    assert geo.check_comparison(model, model.profile.barrier).holds is True


def test_ricci_uniformization_constant_curvature(hyperbolic_model):
    with pytest.raises(CurvatureNotVanishing):
        geo.ricci_uniformization(hyperbolic_model, 5.0)
    g = geo.ricci_uniformization(hyperbolic_model, 5.0, allow_constant=True)
    assert math.isclose(g, 1.0, rel_tol=1e-9)


def test_ricci_uniformization_flat(euclidean_model):
    with pytest.raises(FlatProfile):
        geo.ricci_uniformization(euclidean_model, 5.0)


def test_ricci_uniformization_powerlaw_oracle():
    model = geo.build_model(geo.PowerLaw(1.0, 1.0, 1.0), 3, 2000.0)
    # oracle: brute-force supremum of both Ricci eigenvalue magnitudes
    r = np.geomspace(100.0, 2000.0, 20000)
    K = model.curvature(r)
    z = model.dlogpsi(r)
    tang = K + 1.0 * (z * z - np.exp(-2.0 * model.logpsi(r)))
    lam = max(np.max(2.0 * K), np.max(tang))
    expected = math.sqrt(2.0 / lam)
    got = geo.ricci_uniformization(model, 100.0)
    assert math.isclose(got, expected, rel_tol=1e-3)
    # decays like sqrt(R) for beta = 1
    assert math.isclose(got, 10.0, rel_tol=0.05)


def test_ricci_uniformization_monotone():
    model = geo.build_model(geo.PowerLaw(1.0, 1.0, 1.0), 3, 2000.0)
    gs = [geo.ricci_uniformization(model, R) for R in (50, 100, 200, 400)]
    assert all(b > a for a, b in zip(gs, gs[1:]))


def test_profile_validation():
    with pytest.raises(ValidationError):
        geo.PowerLaw(1.0, 3.0, 1.0)
    with pytest.raises(ValidationError):
        geo.PowerLaw(-1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        geo.QuasiEuclideanOptimal(0.0, 1.0)
    with pytest.raises(ValidationError):
        geo.Hyperbolic(0.0)
    with pytest.raises(ValidationError):
        geo.build_model(geo.Euclidean(), 1, 10.0)
    with pytest.raises(ValidationError):
        geo.build_model(geo.PowerLaw(1.0, 1.0, 5.0), 3, 4.0)  # Rmax inside cap


class _NegatedLaw:
    """A law with no closed form: the power law K = r^-1 past r = 1, negated."""

    flat_cap = 1.0

    def curvature(self, r):
        return -geo.PowerLaw(1.0, 1.0, 1.0).curvature(r)

    def tail(self, model):
        return geo.TailModel("divergent")


class _BadLaw(geo.PowerLaw):
    def curvature(self, r):
        return -super().curvature(r)


@pytest.mark.parametrize("profile, method", [
    (_NegatedLaw(), "auto"),
    (_BadLaw(1.0, 1.0, 1.0), "ode"),
], ids=["law_only", "closed_form_forced_to_ode"])
def test_nonhadamard_law_rejected(profile, method):
    # the law is probed for K >= 0 before every integration
    with pytest.raises(NonHadamardProfile):
        geo.build_model(profile, 3, 10.0, method=method)


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 2.0])
def test_power_law_closed_form_matches_integrator(beta):
    closed = geo.build_model(geo.PowerLaw(1.0, beta, 1.0), 3, 2000.0)
    ode = geo.build_model(geo.PowerLaw(1.0, beta, 1.0), 3, 2000.0, method="ode")
    assert (closed.built_by, ode.built_by) == ("closed", "ode")
    r = closed.grid_r[1:]
    y_c, y_o = closed.logpsi(r), ode.logpsi(r)
    assert np.max(np.abs(y_o - y_c) / np.maximum(1.0, np.abs(y_c))) < 1e-9
    assert np.max(np.abs(ode.dlogpsi(r) / closed.dlogpsi(r) - 1.0)) < 1e-9


@pytest.mark.parametrize("r0", [0.5, 3.0])
@pytest.mark.parametrize("beta", [0.5, 1.5, 2.0])
def test_power_law_glue_away_from_r0_one(beta, r0):
    # the cap side of r0 and the exact side meet log r and 1/r with a C^1 glue
    prof = geo.PowerLaw(1.0, beta, r0)
    r = np.array([np.nextafter(r0, 0.0), r0, np.nextafter(r0, np.inf)])
    assert np.max(np.abs(prof.logpsi(r) - np.log(r))) < 1e-12
    assert np.max(np.abs(prof.dlogpsi(r) * r - 1.0)) < 1e-12
    assert geo.is_cartan_hadamard(geo.build_model(prof, 3, 40.0 * r0)) == (True, None)


def test_power_law_logpsi_stays_finite():
    # oracle: the glue solved with unscaled I_1, K_1 and their derivatives at
    # x0 = 2, then the large-x expansion I_1(x) ~ e^x (1 - 3/(8x)) / sqrt(2 pi x)
    # beta = 1: x = 2 sqrt(r), nu = 1, psi = sqrt(r) [A I_1(x) + B K_1(x)]
    glue = np.array([[iv(1, 2.0), kv(1, 2.0)],
                     [iv(1, 2.0) / 2 + ivp(1, 2.0), kv(1, 2.0) / 2 + kvp(1, 2.0)]])
    A, _ = np.linalg.solve(glue, [1.0, 1.0])
    r = 1e8
    x = 2.0 * math.sqrt(r)
    expected = (0.5 * math.log(r) + math.log(A) + x - 0.5 * math.log(2 * math.pi * x)
                + math.log1p(-3.0 / (8.0 * x)))
    got = float(geo.PowerLaw(1.0, 1.0, 1.0).logpsi(r))
    assert math.isfinite(got)
    assert got == pytest.approx(20002.66, abs=0.01)
    assert abs(got - expected) < 1e-8


def test_power_law_refuses_a_bessel_glue_that_is_not_finite():
    # beta = 1.999: nu = 1000, and at x0 = 447 (c0 = 0.05) ive underflows to
    # 0 and kve overflows, so the glue would be NaN; c0 = 1 still glues
    with pytest.raises(NumericalError, match=r"c0 = 0.05, beta = 1.999 \(nu = 1000\)"):
        geo.PowerLaw(0.05, 1.999, 1.0)
    assert math.isfinite(float(geo.PowerLaw(1.0, 1.999, 1.0).logpsi(10.0)))


def test_quadratic_law_logpsi_stays_finite():
    # beta = 2, c0 = 1e4: q1 ~ 100.5, so r^q1 overflows float64 at r = 2000
    exact = geo.PowerLaw(1e4, 2.0, 1.0).exact
    r = 2000.0
    assert math.isfinite(float(exact.logpsi(r)))
    assert float(exact.dlogpsi(r)) * r == pytest.approx(exact.q1, rel=1e-14)
    # where the linear form a1 r^q1 + a2 r^q2 is finite, the two agree
    for c0, r0 in ((2.0, 1.0), (0.3, 0.5), (1e4, 1.0), (50.0, 3.0)):
        exact = geo.PowerLaw(c0, 2.0, r0).exact
        r = np.geomspace(r0, 1e3 * r0, 400)
        with np.errstate(over="ignore", invalid="ignore"):
            psi = exact.a1 * r ** exact.q1 + exact.a2 * r ** exact.q2
            dpsi = (exact.a1 * exact.q1 * r ** (exact.q1 - 1.0)
                    + exact.a2 * exact.q2 * r ** (exact.q2 - 1.0))
            logpsi, dlogpsi = np.log(psi), dpsi / psi
        ok = np.isfinite(logpsi) & np.isfinite(dlogpsi)
        assert ok.sum() > 10
        assert np.all(np.abs(exact.logpsi(r[ok]) - logpsi[ok])
                      <= 1e-14 * np.maximum(1.0, np.abs(logpsi[ok])))
        assert np.max(np.abs(exact.dlogpsi(r[ok]) / dlogpsi[ok] - 1.0)) < 1e-14


def test_csv_export_keeps_every_bit(tmp_path, hyperbolic_model):
    # 17 significant digits of the model command's table read back to the very doubles
    assert cli.main(["model", "--profile", "hyperbolic", "--k", "1", "--n", "3",
                     "--rmax", "20", "--out-dir", str(tmp_path)]) == 0
    back = np.loadtxt(tmp_path / "model.csv", delimiter=",", comments="#", skiprows=2)
    for column, exact in zip(back.T, hyperbolic_model.table()):
        assert np.array_equal(column, exact)


@pytest.mark.parametrize("law", [geo.Constant, geo.Hyperbolic,
                                 lambda v: geo.PowerLaw(v, 1.0, 1.0),
                                 lambda v: geo.PowerLaw(1.0, 1.0, v)],
                         ids=["constant_k", "hyperbolic_k", "power_c0", "power_r0"])
@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
def test_laws_refuse_non_finite_parameters(law, value):
    # an infinite k once gave B = 0 with no flag, as a NaN log psi passes every bound check
    with pytest.raises(ValidationError, match="finite"):
        law(value)


@pytest.mark.parametrize("N", [2.5, 1, 0, -3, True, 3.0])
def test_both_constructors_refuse_a_bad_dimension(N):
    with pytest.raises(ValidationError, match="dimension must be an integer >= 2"):
        geo.build_model(geo.Hyperbolic(1.0), N, 20.0)


def test_a_numpy_integer_dimension_is_stored_as_int():
    model = geo.build_model(geo.Hyperbolic(1.0), np.int64(4), 20.0)
    assert type(model.N) is int and model.N == 4


def test_grid_spec():
    g = geo.GridSpec(n=1024, kind="graded")
    nodes = g.nodes(20.0)
    assert len(nodes) == 1024
    assert nodes[0] == pytest.approx(2e-5)
    assert nodes[-1] == 20.0
    # geometric growth near the origin, uniform past 1
    lead = nodes[:8]
    ratios = lead[1:] / lead[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-6)
    tail = np.diff(nodes[-8:])
    assert np.allclose(tail, tail[0], rtol=1e-9)
    with pytest.raises(ValidationError):
        geo.GridSpec(n=10).nodes(20.0)


@pytest.mark.parametrize("rmax", [0.5, 20.0])
def test_grid_spec_refuses_an_unknown_kind(rmax):
    # below rmax = 1 every kind is geometric, so the kind is checked first
    with pytest.raises(ValidationError, match="unknown grid kind 'bogus'"):
        geo.GridSpec(kind="bogus").nodes(rmax)
