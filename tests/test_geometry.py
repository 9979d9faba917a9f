import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import iv, ivp, kv, kvp

from hadamard_ineq import geometry as geo
from hadamard_ineq.errors import (
    CurvatureNotVanishing,
    FlatProfile,
    NonHadamardProfile,
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


def test_hadamard_predicate(hyperbolic_model, quasi_model):
    assert geo.is_cartan_hadamard(hyperbolic_model) == (True, None)
    assert geo.is_cartan_hadamard(quasi_model) == (True, None)


def test_decaying_warping_is_not_hadamard():
    m = geo.build_model(geo.ExponentialPower(1.0, 0.5), 3, 20.0)
    flag, r_bad = geo.is_cartan_hadamard(m)
    assert flag is False
    assert 0.1 < r_bad < 3.0
    assert float(m.curvature(np.float64(r_bad))) < 0.0


@pytest.mark.parametrize("profile, N", [
    (geo.Hyperbolic(1.0), 3),
    (geo.Hyperbolic(4.0), 2),
    (geo.PowerLaw(1.0, 0.5, 1.0), 3),
    (geo.PowerLaw(1.0, 1.5, 1.0), 3),
    (geo.QuasiEuclideanOptimal(2.0, 1.0), 3),
])
def test_class_membership_invariants(profile, N):
    m = geo.build_model(profile, N, 50.0)
    r = m.grid_r
    assert m.grid_psi[0] == 0.0 and m.grid_dpsi[0] == 1.0
    assert np.all(m.psi(r[1:]) >= r[1:] * (1 - 1e-8))
    assert np.all(m.dpsi(r) >= 1 - 1e-8)
    assert np.all(m.curvature(r[1:]) >= 0.0)
    assert np.all(np.diff(m.grid_psi) > 0)


def test_comparison_mckean(hyperbolic_model, euclidean_model):
    assert geo.check_comparison(hyperbolic_model, geo.McKeanBound(1.0)).holds
    rep = geo.check_comparison(euclidean_model, geo.McKeanBound(1.0))
    assert not rep.holds
    lo, hi = rep.fail_interval
    assert lo == pytest.approx(1.0, rel=0.02)  # 1/r < 1 exactly past r = 1
    assert hi == pytest.approx(euclidean_model.Rmax, rel=1e-6)


def test_comparison_euclidean_bound(power_model, hyperbolic_model):
    assert geo.check_comparison(power_model, geo.EuclideanBound()).holds
    assert geo.check_comparison(hyperbolic_model, geo.EuclideanBound()).holds


def test_comparison_weak_ricci_mode(hyperbolic_model, euclidean_model, power_model):
    # the one-directional Ricci route is weaker on models, so it must hold
    for m in (hyperbolic_model, euclidean_model, power_model):
        assert geo.check_comparison(m, geo.WeakRicciBound()).holds


def test_lemma31_scan_and_growth(power_model):
    c, r0 = geo.lemma31_constants(power_model)
    assert c > 0 and r0 > 0
    rep = geo.check_comparison(power_model, geo.Lemma31Bound(c, r0, 1.0))
    assert rep.holds
    # growth floor implied by the certified pair: psi >= kappa exp(2c sqrt(r))
    alpha = 0.5
    kappa = r0 * math.exp(-c / (1 - alpha) * r0 ** (1 - alpha))
    r = np.geomspace(r0, power_model.Rmax, 60)
    lhs = power_model.logpsi(r)
    rhs = math.log(kappa) + c / (1 - alpha) * r ** (1 - alpha)
    assert np.all(lhs >= rhs - 1e-9)


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


def test_csv_round_trip(tmp_path, hyperbolic_model):
    path = tmp_path / "model.csv"
    geo.model_to_csv(hyperbolic_model, path, header_comment="round trip")
    m2 = geo.model_from_csv(path, 3)
    assert m2.N == 3 and m2.built_by == "table"
    r = np.linspace(0.5, 19.5, 77)
    assert np.max(np.abs(m2.psi(r) / hyperbolic_model.psi(r) - 1.0)) < 1e-6
    assert np.max(np.abs(m2.dpsi(r) / hyperbolic_model.dpsi(r) - 1.0)) < 1e-6
    # second export is value-identical (17 significant digits round trip)
    path2 = tmp_path / "model2.csv"
    geo.model_to_csv(m2, path2)
    rows1 = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    rows2 = [l for l in path2.read_text().splitlines() if not l.startswith("#")]
    assert rows1 == rows2


def test_imported_table_curvature(tmp_path, hyperbolic_model):
    path = tmp_path / "model.csv"
    geo.model_to_csv(hyperbolic_model, path)
    m = geo.model_from_csv(path, 3)
    assert geo.is_cartan_hadamard(m) == (True, None)
    r = m.grid_r[1:]
    mid = np.sqrt(r[:-1] * r[1:])
    assert np.max(np.abs(m.curvature(r) - 1.0)) <= 1e-3
    assert np.max(np.abs(m.curvature(mid) - 1.0)) <= 1e-3
    # below the first node psi continues linearly, so K is that of c r
    below = np.geomspace(1e-3 * r[0], 0.9 * r[0], 5)
    assert np.allclose(m.psi(below) / below, m.psi(r[0]) / r[0], rtol=1e-12)
    assert np.all(m.curvature(below) == 0.0)


def _spoil_rows(lines, spoil):
    head = [l for l in lines if l.startswith("#") or l.startswith("r,")]
    rows = [l for l in lines if l not in head]
    return head + spoil(rows)


def _from_r(r0, field, value):
    def spoil(rows):
        out = []
        for row in rows:
            cells = row.split(",")
            if float(cells[0]) >= r0:
                cells[field] = value
            out.append(",".join(cells))
        return out
    return spoil


@pytest.mark.parametrize("spoil, message", [
    (_from_r(15.0, 1, "inf"), r"not finite at r = 15\.0"),
    (_from_r(7.0, 2, "nan"), r"not finite at r = 7\.0"),
    (lambda rows: [], "holds no table rows"),
    (lambda rows: rows[:10] + [rows[10].rsplit(",", 1)[0]] + rows[11:],
     "line 12 .* not three numbers"),
], ids=["inf_psi", "nan_dpsi", "empty", "two_fields"])
def test_imported_table_validation(tmp_path, hyperbolic_model, spoil, message):
    path = tmp_path / "model.csv"
    geo.model_to_csv(hyperbolic_model, path)
    path.write_text("\n".join(_spoil_rows(path.read_text().splitlines(), spoil)) + "\n")
    with pytest.raises(ValidationError, match=message):
        geo.model_from_csv(path, 3)


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
