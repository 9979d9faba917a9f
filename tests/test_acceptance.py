"""Acceptance suite: one test per criterion, one PASS/FAIL line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math

import numpy as np
import pytest

from hadamard_ineq import geometry as geo
from hadamard_ineq import pme
from hadamard_ineq import variational as var
from hadamard_ineq import weighted as wgt


def _report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {label} {detail}"


# -- shared heavy objects ----------------------------------------------------

@pytest.fixture(scope="module")
def quasi_n2_weight():
    model = geo.build_model(geo.QuasiEuclideanOptimal(2.0, 1.0), 2, 50.0,
                            grid=geo.GridSpec(n=4096, kind="log", r_start=1e-30))
    return wgt.build_weight(model)


@pytest.fixture(scope="module")
def flat_pme_run():
    model = geo.build_model(geo.Euclidean(), 3, 30.0)
    cfg = pme.PMEConfig(m=2.0, model=model, R_domain=24.0,
                        initial=pme.Characteristic(1.0, 1.0),
                        t_end=200.0, n_cells=600)
    return pme.pme_run(cfg)


@pytest.fixture(scope="module")
def quasi_pme_run():
    model = geo.build_model(geo.QuasiEuclideanOptimal(2.0, 1.0), 3, 60.0)
    cfg = pme.PMEConfig(m=2.0, model=model, R_domain=50.0,
                        initial=pme.Characteristic(2.0, 1.0),
                        t_end=500.0, n_cells=800)
    return pme.pme_run(cfg)


@pytest.fixture(scope="module")
def subhyp_pme_run():
    model = geo.build_model(geo.PowerLaw(1.0, 1.0, 1.0), 3, 130.0)
    cfg = pme.PMEConfig(m=2.0, model=model, R_domain=100.0,
                        initial=pme.Characteristic(2.0, 4.0),
                        t_end=1e10, n_cells=1000,
                        output_times=np.geomspace(1e4, 1e10, 90))
    return pme.pme_run(cfg)


# -- criteria ----------------------------------------------------------------

def test_criterion_1_hyperbolic_poincare(hyperbolic_weight):
    rep = wgt.supremum_B(hyperbolic_weight, 2.0)
    eig = var.poincare_eigen(hyperbolic_weight, 20.0)
    sup_bound, poin, gap = wgt.mckean_bounds(3, 1.0)
    ok = (abs(rep.B - 0.5) <= 1e-3
          and abs(rep.sandwich[0] - 0.5) <= 1e-3
          and abs(rep.sandwich[1] - 1.0) <= 1e-3
          and 0.95 <= eig.best_constant <= 1.001
          and poin == 1.0 and gap == 1.0 and sup_bound == 0.5)
    _report(1, "hyperbolic spectral gap and constant enclosure", ok,
            f"B={rep.B:.6f} sandwich=({rep.sandwich[0]:.4f},{rep.sandwich[1]:.4f}) "
            f"eigen_constant={eig.best_constant:.4f}")


def test_criterion_2_subhyperbolic_scaling(power_model, power_weight):
    p_values = np.linspace(2.02, 2.2, 10)
    fit = wgt.scaling_regression([wgt.supremum_B(power_weight, float(p))
                                  for p in p_values], "p_to_2")
    c, r0 = power_model.profile.lemma31
    dominated = all(
        wgt.lemma41_bound(3, 0.5, c, r0, float(p)) >= B
        for p, B in zip(fit.p_values, fit.B_values))
    ok = abs(fit.slope - (-1.0)) <= 0.15 and dominated
    _report(2, "sub-hyperbolic constant blowup rate and explicit bound", ok,
            f"slope={fit.slope:.4f} (predicted -1) bound_dominates={dominated}")


def test_criterion_3_quasi_threshold(quasi_weight):
    divergent = all(wgt.supremum_B(quasi_weight, p).divergent
                    for p in (2.5, 3.0, 3.2))
    finite = all(not wgt.supremum_B(quasi_weight, p).divergent
                 for p in (10.0 / 3.0, 3.5, 4.0, 6.0))
    scan = var.quasi_euclidean_failure_scan(quasi_weight, 3.0, [10.0, 1000.0])
    shrink = scan[1][1] / scan[0][1]
    ok = divergent and finite and shrink < 0.5
    _report(3, "quasi-Euclidean threshold exponent 10/3", ok,
            f"divergent_below={divergent} finite_from={finite} "
            f"ratio_1000_over_10={shrink:.3f}")


def test_criterion_4_sqrt_p_growth(quasi_n2_weight):
    p_values = np.geomspace(10.0, 200.0, 8)
    fit = wgt.scaling_regression([wgt.supremum_B(quasi_n2_weight, float(p))
                                  for p in p_values], "p_large")
    ok = abs(fit.slope - 0.5) <= 0.1
    _report(4, "two-dimensional constant grows like sqrt(p)", ok,
            f"slope={fit.slope:.4f} (predicted 0.5)")


def test_criterion_5_nonradial_certificate():
    radii = [50.0, 100.0, 200.0, 400.0]
    ok = True
    details = []
    for beta in (0.5, 1.0, 1.5):
        model = geo.build_model(geo.PowerLaw(1.0, beta, 1.0), 3, 2000.0)
        for p in (2.0, 2.5):
            vals = [c.lower_bound_on_C
                    for c in var.certificate_scan(model, p, radii)]
            grow = all(b > a for a, b in zip(vals, vals[1:]))
            ok = ok and grow
            details.append(f"beta={beta} p={p} grows={grow}")
        crit_vals = [c.lower_bound_on_C
                     for c in var.certificate_scan(model, 6.0, radii)]
        flat = max(crit_vals) / min(crit_vals) - 1.0
        ok = ok and flat < 1e-6
        details.append(f"beta={beta} critical_spread={flat:.1e}")
    _report(5, "nonradial failure certificate grows below the critical exponent",
            ok, "; ".join(details[:3]) + " ...")


def test_criterion_6_sandwich_honesty(hyperbolic_weight, euclidean_weight,
                                      quasi_weight, power_weight):
    cases = [(hyperbolic_weight, 2.0), (euclidean_weight, 6.0),
             (quasi_weight, 4.0), (power_weight, 2.1)]
    rng = np.random.default_rng(20240811)
    ok = True
    worst_frac = math.inf
    for weight, p in cases:
        rep = wgt.supremum_B(weight, p)
        checked = 0
        while checked < 100:
            n = int(rng.integers(4, 40))
            i0 = int(rng.integers(1, len(weight.rgrid) // 2))
            i1 = int(rng.integers(i0 + 2, min(i0 + 2 + 2000, len(weight.rgrid) - 1)))
            idx = np.unique(rng.integers(i0, i1 + 1, n))
            if len(idx) < 3:
                continue
            r = weight.rgrid[idx]
            g = rng.standard_normal(len(r))
            g[0] = g[-1] = 0.0
            grad, pn = wgt.plin_norms(weight, r, g, p)
            if grad == 0.0:
                continue
            ok = ok and pn <= rep.sandwich_upper * grad * (1 + 1e-9)
            checked += 1
        er, eg = wgt.near_extremal(weight, rep)
        grad, pn = wgt.plin_norms(weight, er, eg, p)
        frac = (pn / grad) / rep.B
        worst_frac = min(worst_frac, frac)
        ok = ok and frac >= 0.95 and pn / grad <= rep.sandwich_upper * (1 + 1e-9)
    _report(6, "enclosure honest against 100 random test functions per model",
            ok, f"worst extremal fraction of B = {worst_frac:.3f}")


def test_criterion_7_flat_space_decay(flat_pme_run):
    fit = pme.fit_smoothing(flat_pme_run.states, "power_only", window=(2.0, 200.0))
    ok = abs(fit.power_exponent - (-0.6)) <= 0.03
    _report(7, "flat-space decay exponent 3/5 reproduced", ok,
            f"slope={fit.power_exponent:.4f} window={fit.window}")


def test_criterion_8_quasi_smoothing(quasi_pme_run):
    target = -pme.smoothing_exponent(5.0, 2.0)  # -5/7
    fit = pme.fit_smoothing(quasi_pme_run.states, "power_only", window=(5.0, 500.0))
    ok = abs(fit.power_exponent - target) <= 0.1 * abs(target)
    _report(8, "quasi-Euclidean decay exponent 5/7 reproduced", ok,
            f"slope={fit.power_exponent:.4f} target={target:.4f}")


def test_criterion_9_log_correction(subhyp_pme_run):
    run = subhyp_pme_run
    mass = run.states[0].mass
    window = (1e8, 1e10)
    fit_p = pme.fit_smoothing(run.states, "power_only", window=window)
    fit_l = pme.fit_smoothing(run.states, "power_with_log", m=2.0, beta=1.0,
                              mass=mass, window=window)
    K_up, K_lo, _ = pme.fit_envelopes(run.states, 1.0, 2.0, mass, window=window)
    t = np.array([s.t for s in run.states
                  if window[0] <= s.t <= window[1] and s.sup > 0])
    sup = np.array([s.sup for s in run.states
                    if window[0] <= s.t <= window[1] and s.sup > 0])
    upper = pme.reference_curves(1.0, 2.0, K_up, mass, t)
    lower = pme.lower_curve(K_lo, 1.0, 2.0, t)
    sandwiched = bool(np.all(sup <= upper * (1 + 1e-12))
                      and np.all(sup >= lower * (1 - 1e-12)))
    ok = fit_l.residual_rms < fit_p.residual_rms and sandwiched
    _report(9, "pinned log-correction model beats the free power fit", ok,
            f"resid_log={fit_l.residual_rms:.2e} resid_power={fit_p.residual_rms:.2e} "
            f"sandwiched={sandwiched}")


def test_criterion_10_invariant_suites(flat_pme_run, quasi_pme_run, subhyp_pme_run,
                                       power_weight, quasi_weight, quasi_n2_weight):
    # mass conservation on every completed run
    drifts = []
    for run in (flat_pme_run, quasi_pme_run, subhyp_pme_run):
        masses = np.array([s.mass for s in run.states])
        drifts.append(float(np.max(np.abs(masses / masses[0] - 1.0))))
    mass_ok = max(drifts) < 1e-6

    # integrator against the constant-curvature closed form
    m_ode = geo.build_model(geo.Hyperbolic(1.0), 3, 10.0, method="ode")
    r = np.linspace(0.05, 10.0, 300)
    ode_err = float(np.max(np.abs(m_ode.psi(r) / np.sinh(r) - 1.0)))
    ode_ok = ode_err < 1e-6

    # warping inequalities on every nonpositively curved profile
    shapes_ok = True
    for prof, N in ((geo.Hyperbolic(1.0), 3), (geo.Hyperbolic(4.0), 2),
                    (geo.PowerLaw(1.0, 0.5, 1.0), 3),
                    (geo.PowerLaw(1.0, 1.0, 1.0), 3),
                    (geo.PowerLaw(1.0, 1.5, 1.0), 3),
                    (geo.QuasiEuclideanOptimal(2.0, 1.0), 3),
                    (geo.Euclidean(), 3)):
        m = geo.build_model(prof, N, 50.0)
        rr = m.grid_r[1:]
        shapes_ok = shapes_ok and bool(
            np.all(m.psi(rr) >= rr * (1 - 1e-8))
            and np.all(m.dpsi(rr) >= 1 - 1e-8)
            and np.all(m.curvature(rr) >= -1e-15))

    # stationarity identity at every finite reported maximizer
    worst_resid = 0.0
    for weight, ps in ((power_weight, (2.02, 2.1, 2.2)),
                       (quasi_weight, (3.5, 4.0, 5.0)),
                       (quasi_n2_weight, (10.0, 50.0, 200.0))):
        for p in ps:
            rep = wgt.supremum_B(weight, p)
            if rep.crit_residual is not None:
                worst_resid = max(worst_resid, rep.crit_residual)
    crit_ok = worst_resid < 1e-6

    ok = mass_ok and ode_ok and shapes_ok and crit_ok
    _report(10, "conservation, integrator, shape, and stationarity invariants",
            ok, f"mass_drift={max(drifts):.1e} ode_err={ode_err:.1e} "
                f"crit_resid={worst_resid:.1e}")
