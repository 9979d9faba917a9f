import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg.lapack import dpttrf

from hadamard_ineq import geometry as geo
from hadamard_ineq import variational as var
from hadamard_ineq import weighted as wgt
from hadamard_ineq.errors import GridTooCoarse, InvalidExponent, OutOfDomain, ValidationError


# ---------------------------------------------------------------------------
# spectral gap
# ---------------------------------------------------------------------------

def test_poincare_hyperbolic_exact(hyperbolic_weight):
    # closed-form Dirichlet eigenvalue on the truncated domain: 1 + (pi/R)^2,
    # eigenfunction sin(pi r / R)/sinh r
    res = var.poincare_eigen(hyperbolic_weight, 20.0)
    assert res.lambda1 == pytest.approx(1.0 + (math.pi / 20.0) ** 2, rel=1e-4)
    assert 0.95 <= res.best_constant <= 1.001


def test_poincare_euclidean_linear_growth(euclidean_weight):
    # flat oracle: lambda1 = (pi/R)^2, constant R/pi
    for R in (10.0, 20.0):
        res = var.poincare_eigen(euclidean_weight, R)
        assert res.best_constant == pytest.approx(R / math.pi, rel=1e-3)


def test_poincare_h2_limit():
    m = geo.build_model(geo.Hyperbolic(4.0), 2, 20.0)
    w = wgt.build_weight(m)
    res = var.poincare_eigen(w, 15.0)
    # spectral gap k(N-1)^2/4 = 1: constant tends to 1 from below
    assert 0.9 <= res.best_constant <= 1.0 + 1e-6


def test_poincare_domain_monotonicity(hyperbolic_weight):
    consts = [var.poincare_eigen(hyperbolic_weight, R).best_constant
              for R in (5.0, 10.0, 15.0, 20.0)]
    assert all(b >= a for a, b in zip(consts, consts[1:]))


def test_poincare_eigenfunction_shape(hyperbolic_weight):
    res = var.poincare_eigen(hyperbolic_weight, 20.0)
    r = res.r
    g = res.eigenfunction
    assert np.max(g) == pytest.approx(1.0)
    assert g[-1] == 0.0
    interior = (r > 1.0) & (r < 19.0)
    oracle = np.sin(math.pi * r[interior] / 20.0) / np.sinh(r[interior])
    oracle = oracle / np.max(np.abs(oracle)) * np.max(np.abs(g[interior]))
    assert np.max(np.abs(g[interior] - oracle)) < 5e-3


def test_poincare_out_of_domain(hyperbolic_weight):
    with pytest.raises(OutOfDomain):
        var.poincare_eigen(hyperbolic_weight, 25.0)


@pytest.mark.parametrize("R", [0.0, -1.0])
def test_poincare_refuses_a_nonpositive_domain(hyperbolic_weight, R):
    with pytest.raises(OutOfDomain, match="must lie in"):
        var.poincare_eigen(hyperbolic_weight, R)


@pytest.mark.parametrize("rmax, R", [(20.0, 20.0), (60.0, 30.0)], ids=["readme", "rmax60"])
def test_poincare_lambda1_is_the_rayleigh_quotient_of_its_eigenfunction(rmax, R):
    # hyperbolic k = 1, N = 3: lambda1 is the quotient of the returned
    # vector, not a Ritz value
    weight = wgt.build_weight(geo.build_model(geo.Hyperbolic(1.0), 3, rmax))
    res = var.poincare_eigen(weight, R)
    mesh = var._Mesh(weight, R)
    assert np.array_equal(res.r, mesh.nodes)
    g = res.eigenfunction[:-1]
    quotient = mesh.energy(g) / mesh.power_sum(g, 2.0)[0]
    assert res.lambda1 == pytest.approx(quotient, rel=1e-12)


@pytest.mark.parametrize("rmax, R", [(20.0, 20.0), (60.0, 60.0)], ids=["readme", "rmax60"])
def test_poincare_lambda1_is_certified_by_inertia(rmax, R):
    # Sylvester's law of inertia: A - sigma M factors exactly when sigma < lambda1
    weight = wgt.build_weight(geo.build_model(geo.Hyperbolic(1.0), 3, rmax))
    lam = var.poincare_eigen(weight, R).lambda1
    mesh = var._Mesh(weight, R)
    info = lambda s: dpttrf(mesh.A[0] - s * mesh.M[0], mesh.A[1] - s * mesh.M[1])[2]
    assert info(lam * (1.0 - 1e-12)) == 0
    assert info(lam * (1.0 + 1e-12)) > 0


def test_poincare_coarsening_guard_refuses_a_sparse_log_grid():
    # 64 log-spaced nodes on (0, 20]: halving them moves lambda1 by 25 %
    weight = wgt.build_weight(geo.build_model(geo.Hyperbolic(1.0), 3, 20.0,
                                              grid=geo.GridSpec(n=64, kind="log")))
    with pytest.raises(GridTooCoarse, match="eigenvalue moved 24.93% under coarsening"):
        var.poincare_eigen(weight, 20.0)


@pytest.mark.parametrize("k, rmax, R", [(1.0, 60.0, 40.0), (1.0, 60.0, 60.0),
                                        (4.0, 30.0, 30.0)])
def test_poincare_large_hyperbolic_domains(k, rmax, R):
    # closed form on the truncated domain, N = 3: k + (pi/R)^2
    weight = wgt.build_weight(geo.build_model(geo.Hyperbolic(k), 3, rmax))
    res = var.poincare_eigen(weight, R)
    assert res.lambda1 == pytest.approx(k + (math.pi / R) ** 2, rel=1e-4)


def test_poincare_on_the_power_law_certificate_geometry():
    # beta = 1 out to Rmax = 2000 (the README certificate's geometry)
    weight = wgt.build_weight(geo.build_model(geo.PowerLaw(1.0, 1.0, 1.0), 3, 2000.0))
    res = var.poincare_eigen(weight, 2000.0)
    assert 0.0 < res.lambda1 < var.poincare_eigen(weight, 1000.0).lambda1


# ---------------------------------------------------------------------------
# Rayleigh quotient
# ---------------------------------------------------------------------------

def test_rayleigh_flat_sobolev(euclidean_weight):
    # oracle: quotient of the algebraic bump (1 + r^2)^(-1/2) by quadrature
    res = var.rayleigh_minimize(euclidean_weight, 6.0, 50.0)
    Ig = quad(lambda r: r ** 4 * (1 + r * r) ** -3, 0, np.inf)[0]
    Ip = quad(lambda r: r * r * (1 + r * r) ** -3, 0, np.inf)[0]
    oracle = math.sqrt(Ig) / Ip ** (1.0 / 6.0)
    assert res.ratio == pytest.approx(oracle, rel=0.10)
    rep = wgt.supremum_B(euclidean_weight, 6.0)
    assert res.ratio >= 1.0 / rep.sandwich_upper
    assert res.ratio <= 1.1 / rep.B


def test_rayleigh_poincare_cross_oracle(hyperbolic_weight):
    res = var.rayleigh_minimize(hyperbolic_weight, 2.0, 20.0)
    eig = var.poincare_eigen(hyperbolic_weight, 20.0)
    assert res.ratio == pytest.approx(math.sqrt(eig.lambda1), rel=1e-5)


def test_rayleigh_starts_from_the_given_supremum(euclidean_weight, monkeypatch):
    searched = var.rayleigh_minimize(euclidean_weight, 6.0, 50.0, max_iter=20)
    report = wgt.supremum_B(euclidean_weight, 6.0)

    def no_search(*args, **kwargs):
        raise AssertionError("the supremum was searched again")

    monkeypatch.setattr(var, "supremum_B", no_search)
    given = var.rayleigh_minimize(euclidean_weight, 6.0, 50.0, max_iter=20, supremum=report)
    assert given.ratio == searched.ratio
    assert np.array_equal(given.minimizer, searched.minimizer)
    with pytest.raises(ValidationError, match="report is for p = 6.0, not 4.0"):
        var.rayleigh_minimize(euclidean_weight, 4.0, 50.0, supremum=report)


def test_rayleigh_scale_invariance(euclidean_weight):
    res = var.rayleigh_minimize(euclidean_weight, 6.0, 50.0)
    base = var.DiscreteFunction(res.r[:-1], res.minimizer[:-1])
    scaled = var.DiscreteFunction(res.r[:-1], 7.5 * res.minimizer[:-1])
    r1 = var.rayleigh_minimize(euclidean_weight, 6.0, 50.0, init=base)
    r2 = var.rayleigh_minimize(euclidean_weight, 6.0, 50.0, init=scaled)
    assert r1.ratio == pytest.approx(r2.ratio, rel=1e-12, abs=1e-12)


def test_power_sum_matches_a_direct_gauss_sum(euclidean_weight):
    mesh = var._Mesh(euclidean_weight, 40.0)
    r = mesh.nodes
    rng = np.random.default_rng(3)
    tent = np.maximum(1.0 - r[:-1] / 20.0, 0.0)
    iterate = rng.standard_normal(len(r) - 1)
    for g in (tent, iterate):
        gl = np.append(g, 0.0).astype(np.longdouble)
        for p in (3.0, 6.0):
            # independent oracle: GL5 on each element, g from the hat values
            # (1 -+ x)/2 of the reference element, summed in long double
            total = np.longdouble(0.0)
            for x, wt in zip(geo.GL5_NODES, geo.GL5_WEIGHTS):
                s = 0.5 * (r[:-1] + r[1:]) + 0.5 * np.diff(r) * x
                gs = (1 - np.longdouble(x)) / 2 * gl[:-1] + (1 + np.longdouble(x)) / 2 * gl[1:]
                total += np.sum(wt * 0.5 * np.diff(r) * euclidean_weight.w_at(s)
                                * np.abs(gs) ** p)
            got, _ = mesh.power_sum(g, p)
            assert got == pytest.approx(float(total), rel=1e-14)


def test_power_sum_gradient_matches_central_differences(euclidean_weight):
    mesh = var._Mesh(euclidean_weight, 3.0)
    g = np.random.default_rng(4).standard_normal(mesh.n_free)  # signs change
    h = 1e-4
    for p in (3.0, 6.0):
        _, grad = mesh.power_sum(g, p)
        fd = np.empty_like(g)
        for i in range(mesh.n_free):
            up, down = g.copy(), g.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (mesh.power_sum(up, p)[0] - mesh.power_sum(down, p)[0]) / (2.0 * h)
        assert np.max(np.abs(fd - grad)) <= 1e-6 * np.max(np.abs(grad))


def test_rayleigh_readme_case_makes_one_quadrature_pass_per_iteration(monkeypatch):
    # the README `rayleigh` command: flat N = 3, Rmax 60, R 50, p = 6
    weight = wgt.build_weight(geo.build_model(geo.Euclidean(), 3, 60.0))
    passes = []
    power_sum = var._Mesh.power_sum

    def counted(self, gf, p):
        passes.append(1)
        return power_sum(self, gf, p)

    monkeypatch.setattr(var._Mesh, "power_sum", counted)
    res = var.rayleigh_minimize(weight, 6.0, 50.0)
    assert res.iterations == 2000 and res.converged is False
    assert len(passes) == res.iterations + 1
    assert res.ratio == pytest.approx(1.0071207990863396, rel=1e-12)


def test_rayleigh_stop_does_not_depend_on_rounding(hyperbolic_weight):
    # the p = 2 descent stops on a relative decrease of 1e-11; the quotient
    # must be accurate well below that, so one-ulp changes of the initial
    # iterate stop it at the same iteration with the same ratio
    r, g = wgt.near_extremal(hyperbolic_weight, wgt.supremum_B(hyperbolic_weight, 2.0))
    rng = np.random.default_rng(0)
    runs = [var.rayleigh_minimize(hyperbolic_weight, 2.0, 20.0, init=var.DiscreteFunction(
        r, g * (1.0 + 2e-16 * rng.standard_normal(g.shape) * k))) for k in range(6)]
    assert {res.iterations for res in runs} == {156}
    assert max(res.ratio for res in runs) - min(res.ratio for res in runs) < 1e-13


def test_rayleigh_halves_the_step_until_no_trial_improves(hyperbolic_weight, monkeypatch):
    # with tol = 0 the relative-decrease stop never fires, so the descent ends
    # only when 50 halvings of the step leave the quotient where it is
    nodes = np.linspace(0.0, 20.0, 50)[:-1]
    tent = var.DiscreteFunction(nodes, 1.0 - nodes / 20.0)
    ratios = [var.rayleigh_minimize(hyperbolic_weight, 3.0, 20.0, init=tent, max_iter=k).ratio
              for k in (0, 1, 5, 20)]
    trials = []
    power_sum = var._Mesh.power_sum
    monkeypatch.setattr(var._Mesh, "power_sum",
                        lambda self, g, p: trials.append(1) or power_sum(self, g, p))
    res = var.rayleigh_minimize(hyperbolic_weight, 3.0, 20.0, init=tent, tol=0.0)
    assert res.converged and res.iterations < 2000
    assert len(trials) >= 1 + res.iterations + 49  # the last iteration's 50 trials
    ratios.append(res.ratio)
    assert all(b <= a for a, b in zip(ratios, ratios[1:]))


def _power_sum_by_temporaries(mesh, gf, p):
    # the allocating formula that _Mesh.power_sum replaced, kept as its oracle
    g = mesh.full(gf)
    gq = np.outer(wgt._PHI_L, g[:-1]) + np.outer(wgt._PHI_R, g[1:])
    aq = np.abs(gq)
    wa = mesh.qwwq * aq ** (p - 1.0)
    core = np.copysign(p * wa, gq)
    grad = wgt._PHI_L @ core
    grad[1:] += wgt._PHI_R @ core[:, :-1]
    return float(np.sum(wa * aq)), grad


@pytest.mark.parametrize("p", [2.0, 2.5, 6.0])
def test_power_sum_is_the_allocating_formula_to_the_bit(hyperbolic_weight, p):
    mesh = var._Mesh(hyperbolic_weight, 20.0)
    g = np.cos(mesh.nodes[:-1]) * np.exp(-0.1 * mesh.nodes[:-1])  # changes sign
    g[::7] = 0.0
    total, grad = mesh.power_sum(g, p)
    want_total, want_grad = _power_sum_by_temporaries(mesh, g, p)
    assert total == want_total
    assert grad.tobytes() == want_grad.tobytes()
    # each call returns a new gradient, in none of the mesh's work arrays
    again = mesh.power_sum(2.0 * g, p)[1]
    assert grad.tobytes() == want_grad.tobytes()
    assert not np.shares_memory(grad, again)
    assert not np.shares_memory(again, mesh._work)


def test_rayleigh_exponent_validation(euclidean_weight):
    with pytest.raises(InvalidExponent):
        var.rayleigh_minimize(euclidean_weight, 1.5, 20.0)


def test_consistency_triangle_p2():
    # 1/ratio from the eigensolve lies inside the supremum sandwich
    cases = [
        (geo.Hyperbolic(1.0), 3, 20.0),
        (geo.Hyperbolic(2.0), 3, 15.0),
        (geo.Hyperbolic(4.0), 2, 20.0),
    ]
    for prof, N, R in cases:
        model = geo.build_model(prof, N, R)
        weight = wgt.build_weight(model)
        rep = wgt.supremum_B(weight, 2.0)
        assert not rep.divergent
        res = var.poincare_eigen(weight, R)
        assert rep.B <= res.best_constant <= rep.sandwich_upper * (1 + 1e-9)


# ---------------------------------------------------------------------------
# domain-growth scans
# ---------------------------------------------------------------------------

def test_failure_scan_below_threshold(quasi_weight):
    scan = var.quasi_euclidean_failure_scan(quasi_weight, 3.0, [10.0, 100.0, 1000.0])
    ratios = [x for _, x in scan]
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] / ratios[0] < 0.5


def test_failure_scan_above_threshold(quasi_weight):
    scan = var.quasi_euclidean_failure_scan(quasi_weight, 4.0, [100.0, 1000.0])
    assert abs(scan[1][1] / scan[0][1] - 1.0) < 0.05


def test_failure_scan_critical(quasi_weight):
    rep = wgt.supremum_B(quasi_weight, 6.0)
    scan = var.quasi_euclidean_failure_scan(quasi_weight, 6.0, [10.0, 100.0, 1000.0])
    assert all(x >= 1.0 / rep.sandwich_upper for _, x in scan)


# ---------------------------------------------------------------------------
# nonradial failure certificate
# ---------------------------------------------------------------------------

def test_sinh_moment_closed_form():
    # int_0^1 sinh^2 = (sinh 1 cosh 1 - 1)/2
    exact = (math.sinh(1.0) * math.cosh(1.0) - 1.0) / 2.0
    assert var.sinh_moment(3) == pytest.approx(exact, rel=1e-10)
    assert exact == pytest.approx(0.40672, abs=1e-5)
    for N in range(2, 13):
        oracle = quad(lambda s: math.sinh(s) ** (N - 1), 0.0, 1.0)[0]
        assert var.sinh_moment(N) == pytest.approx(oracle, rel=1e-14)


def test_unit_sphere_area():
    assert var.unit_sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert var.unit_sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-14)


def test_certificate_growth_subcritical():
    model = geo.build_model(geo.PowerLaw(1.0, 1.0, 1.0), 3, 2000.0)
    reports = var.certificate_scan(model, 2.0, [50.0, 100.0, 200.0, 400.0])
    vals = [c.lower_bound_on_C for c in reports]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(c.conclusion == "grows" for c in reports)


def test_certificate_constant_at_critical():
    model = geo.build_model(geo.PowerLaw(1.0, 1.0, 1.0), 3, 2000.0)
    reports = var.certificate_scan(model, 6.0, [50.0, 100.0, 200.0, 400.0])
    vals = [c.lower_bound_on_C for c in reports]
    assert max(vals) / min(vals) - 1.0 < 1e-6
    assert all(c.conclusion == "bounded" for c in reports)


def test_certificate_exponent_validation():
    model = geo.build_model(geo.PowerLaw(1.0, 1.0, 1.0), 3, 2000.0)
    with pytest.raises(InvalidExponent):
        var.nonradial_certificate(model, 1.5, 50.0)
    with pytest.raises(InvalidExponent):
        var.nonradial_certificate(model, 6.5, 50.0)
