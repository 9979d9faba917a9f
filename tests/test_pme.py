import math

import numpy as np
import pytest

from hadamard_ineq import geometry as geo
from hadamard_ineq import pme
from hadamard_ineq.errors import (
    InsufficientWindow,
    ParameterOutOfRange,
    StabilityFailure,
    ValidationError,
)
from hadamard_ineq.geometry import _gl5


@pytest.fixture(scope="module")
def flat_model():
    return geo.build_model(geo.Euclidean(), 3, 30.0)


def _flat_config(flat_model, **kw):
    base = dict(m=2.0, model=flat_model, R_domain=24.0,
                initial=pme.Characteristic(1.0, 1.0), t_end=50.0, n_cells=400)
    base.update(kw)
    return pme.PMEConfig(**base)


def test_zero_datum_stays_zero(flat_model):
    cfg = _flat_config(flat_model, initial=pme.CustomTable(
        r=np.array([0.0, 1.0]), u=np.array([0.0, 0.0])), t_end=1.0)
    run = pme.pme_run(cfg)
    for s in run.states:
        assert np.all(s.u == 0.0)
        assert s.sup == 0.0


def test_mass_conservation_and_sup_monotone(flat_model):
    run = pme.pme_run(_flat_config(flat_model))
    masses = np.array([s.mass for s in run.states])
    assert np.max(np.abs(masses / masses[0] - 1.0)) < 1e-6
    sups = np.array([s.sup for s in run.states])
    assert np.all(np.diff(sups) <= 1e-12)
    assert np.all(run.states[-1].u >= 0.0)


def test_initial_mass_value(flat_model):
    # box datum quantized to whole cells: mass = omega_2 * edge^3 / 3
    run = pme.pme_run(_flat_config(flat_model, t_end=0.01))
    u0 = run.states[0].u
    edge = run.r_faces[np.flatnonzero(u0 > 0)[-1] + 1]
    assert run.states[0].mass == pytest.approx(4.0 * math.pi * edge ** 3 / 3.0,
                                               rel=1e-10)
    assert edge == pytest.approx(1.0, abs=run.r_faces[1])


def test_comparison_principle(flat_model):
    rng = np.random.default_rng(7)
    for _ in range(3):
        h = float(rng.uniform(0.5, 1.0))
        extra = float(rng.uniform(0.1, 0.8))
        lo_cfg = _flat_config(flat_model, initial=pme.Characteristic(1.0, h),
                              t_end=2.0, dt_fixed=2e-4)
        hi_cfg = _flat_config(flat_model, initial=pme.Characteristic(1.0, h + extra),
                              t_end=2.0, dt_fixed=2e-4)
        lo = pme.pme_run(lo_cfg)
        hi = pme.pme_run(hi_cfg)
        for a, b in zip(lo.states, hi.states):
            assert np.all(a.u <= b.u + 1e-12)


def test_support_boundary_stop(flat_model):
    cfg = _flat_config(flat_model, R_domain=6.0, t_end=2000.0)
    run = pme.pme_run(cfg)
    assert run.stopped_early
    assert run.stop_reason == "support-reached-boundary"
    assert run.states[-1].support_edge >= 6.0 - 3 * (6.0 / 400)


def test_support_stops_on_the_guard(flat_model):
    # coarse grid: explicit steps checked every 200 let the edge pass the
    # guard; fine grid: one step of g t can jump the front two cells
    for R, n, datum in ((2.4, 50, pme.Characteristic(1.2, 10.0)),
                        (6.0, 2000, pme.Characteristic(1.0, 1.0))):
        run = pme.pme_run(_flat_config(flat_model, R_domain=R, n_cells=n,
                                       initial=datum, t_end=2000.0))
        assert run.stop_reason == "support-reached-boundary"
        assert run.states[-1].support_edge == pytest.approx(R - 2 * R / n, rel=1e-12)


def test_support_validation(flat_model):
    with pytest.raises(ValidationError):
        pme.pme_run(_flat_config(flat_model, initial=pme.Characteristic(20.0, 1.0)))
    with pytest.raises(ValidationError):
        _flat_config(flat_model, m=1.0)


def test_initial_datum_needs_values(flat_model):
    with pytest.raises(ValidationError, match="has no values"):
        _flat_config(flat_model, initial=(1.0, 1.0))


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.inf, math.nan])
def test_dt_fixed_must_be_positive_and_finite(flat_model, dt):
    with pytest.raises(ValidationError, match="dt_fixed"):
        _flat_config(flat_model, dt_fixed=dt)


@pytest.mark.parametrize("field, value", [("t_end", math.nan), ("t_end", math.inf),
                                          ("t_end", 0.0), ("m", math.nan), ("m", math.inf),
                                          ("m", 1.0)])
def test_t_end_and_m_must_be_finite(flat_model, field, value):
    # t_end = nan or inf used to run to the last output time and return its states;
    # m = nan or inf ended in StabilityFailure
    with pytest.raises(ValidationError, match=f"^{field} must be"):
        _flat_config(flat_model, output_times=[1.0, 2.0], **{field: value})


@pytest.mark.parametrize("times", [[1.0, math.nan, 2.0], [-1.0, 1.0, 2.0], [1.0, math.inf]])
def test_output_times_must_be_finite_and_nonnegative(flat_model, times):
    # a NaN used to come back as a second t_end state, and -1 as a second t = 0 state
    with pytest.raises(ValidationError, match="finite and nonnegative"):
        pme.pme_run(_flat_config(flat_model, t_end=2.0, output_times=times))


def test_output_times_are_sorted_and_merged(flat_model):
    run = pme.pme_run(_flat_config(flat_model, t_end=2.0, output_times=[2.0, 1.0, 0.0, 1.0]))
    assert [s.t for s in run.states] == [0.0, 1.0, 2.0]


def test_barenblatt_decay_slope(flat_model):
    cfg = _flat_config(flat_model, t_end=200.0, n_cells=600)
    run = pme.pme_run(cfg)
    fit = pme.fit_smoothing(run.states, "power_only")
    assert fit.power_exponent == pytest.approx(-0.6, abs=0.03)


def test_mesh_convergence(flat_model):
    fine = pme.fit_smoothing(
        pme.pme_run(_flat_config(flat_model, t_end=200.0, n_cells=600)).states,
        "power_only")
    coarse = pme.fit_smoothing(
        pme.pme_run(_flat_config(flat_model, t_end=200.0, n_cells=300)).states,
        "power_only")
    assert abs(coarse.power_exponent / fine.power_exponent - 1.0) < 0.02


def test_constant_curvature_log_squared_envelope():
    # sup(t) * t grows no faster than log(t mass + e)^2 on the gap geometry
    model = geo.build_model(geo.Hyperbolic(1.0), 3, 40.0)
    cfg = pme.PMEConfig(m=2.0, model=model, R_domain=30.0,
                        initial=pme.Characteristic(1.0, 1.0),
                        t_end=1e4, n_cells=600)
    run = pme.pme_run(cfg)
    assert not run.stopped_early
    mass = run.states[0].mass
    t = np.array([s.t for s in run.states])
    sup = np.array([s.sup for s in run.states])
    sel = t >= 1.0
    ratio = sup[sel] * t[sel] / np.log(t[sel] * mass + math.e) ** 2
    # the normalized quantity trends down: its running max is set early
    assert np.max(ratio) == pytest.approx(np.max(ratio[: len(ratio) // 3]))
    assert ratio[-1] <= 1.05 * np.min(ratio[: len(ratio) // 3])


def test_fit_recovers_planted_exponent():
    t = np.geomspace(1.0, 1e4, 60)
    states = [pme.PMEState(t=float(tt), u=np.zeros(1), mass=1.0,
                           sup=float(tt ** -1.0), support_edge=1.0) for tt in t]
    fit = pme.fit_smoothing(states, "power_only", window=(1.0, 1e4))
    assert fit.power_exponent == pytest.approx(-1.0, abs=1e-3)
    assert fit.K_fit == pytest.approx(1.0, rel=1e-3)


def test_fit_window_guard():
    t = np.geomspace(1.0, 5.0, 30)  # less than 1.5 decades
    states = [pme.PMEState(t=float(tt), u=np.zeros(1), mass=1.0,
                           sup=float(tt ** -1.0), support_edge=1.0) for tt in t]
    with pytest.raises(InsufficientWindow):
        pme.fit_smoothing(states, "power_only", window=(1.0, 5.0))


def test_fit_with_log_recovers_planted_amplitude():
    # planted law K (log(t+e))^3 / t with K = 0.37
    t = np.geomspace(10.0, 1e5, 80)
    sup = 0.37 * np.log(t + math.e) ** 3 / t
    states = [pme.PMEState(t=float(a), u=np.zeros(1), mass=1.0, sup=float(b),
                           support_edge=1.0) for a, b in zip(t, sup)]
    fit = pme.fit_smoothing(states, "power_with_log", m=2.0, beta=1.0,
                            mass=1.0, window=(10.0, 1e5))
    assert fit.log_correction_exponent == 3.0
    assert fit.K_fit == pytest.approx(0.37, rel=1e-3)
    assert fit.residual_rms < 1e-6


@pytest.mark.parametrize("model_class", ["power_with_log_free", "power"])
def test_only_the_two_decay_laws_are_fitted(model_class):
    # refused before the series is read: two points would be too few to fit
    states = [pme.PMEState(t=a, u=np.zeros(1), mass=1.0, sup=1.0 / a, support_edge=1.0)
              for a in (1.0, 2.0)]
    with pytest.raises(ValidationError, match=f"unknown model class '{model_class}'"):
        pme.fit_smoothing(states, model_class, m=2.0, beta=1.0, mass=1.0)


def test_reference_curves():
    up = pme.reference_curves(1.0, 2.0, 1.0, 1.0, [math.e - math.e + 1.0, 100.0])
    assert np.all(up > 0) and up[0] > up[1] * 1.0
    with pytest.raises(ParameterOutOfRange):
        pme.reference_curves(1.0, 2.0, 1.0, 1.0, [0.0])
    lo = pme.lower_curve(1.0, 1.0, 2.0, [10.0, 100.0])
    assert np.all(lo > 0)
    with pytest.raises(ParameterOutOfRange):
        pme.lower_curve(1.0, 1.0, 2.0, [0.5])


def test_envelope_exponent_identity():
    # upper-envelope log exponent equals the lower one divided by (m - 1)
    for beta in (0.0, 0.5, 1.0, 1.5):
        for m in (1.5, 2.0, 3.0):
            upper = pme.log_correction_exponent(beta, m)
            lower = (2.0 + beta) / (2.0 - beta)
            assert upper == pytest.approx(lower / (m - 1.0), rel=1e-14)


def test_smoothing_exponents():
    assert pme.smoothing_exponent(3, 2.0) == pytest.approx(0.6)
    assert pme.smoothing_exponent(5.0, 2.0) == pytest.approx(5.0 / 7.0)


# ---------------------------------------------------------------------------
# backward Euler against the explicit scheme
# ---------------------------------------------------------------------------

def _finite_volumes(cfg):
    model = cfg.model
    faces = np.linspace(0.0, cfg.R_domain, cfg.n_cells + 1)
    centers = 0.5 * (faces[:-1] + faces[1:])
    w = lambda s: np.exp((model.N - 1.0) * np.asarray(model.logpsi(s), float))
    vol = _gl5(w, centers, 0.5 * faces[1])
    cond = w(faces[1:-1]) / faces[1]
    u0 = cfg.initial.values(centers)
    return vol, cond, np.append(cond, 0.0) + np.insert(cond, 0, 0.0), u0


def _explicit_limit(u, vol, cond_sum, m):
    nb = np.maximum(u, np.maximum(np.append(u[1:], 0.0), np.insert(u[:-1], 0, 0.0)))
    return float(np.min(vol / (cond_sum * m * np.maximum(nb, 1e-300) ** (m - 1.0))))


def _explicit_sups(cfg):
    """Oracle: explicit Euler on the same finite volumes at 0.45 of its
    stability limit; the sup norm at t = 0 and at each output time."""
    vol, cond, cond_sum, u = _finite_volumes(cfg)
    t, sups = 0.0, [u.max()]
    for t_next in cfg.output_times:
        while t < t_next:
            dt = min(0.45 * _explicit_limit(u, vol, cond_sum, cfg.m), t_next - t)
            flux = np.concatenate([[0.0], cond * np.diff(u ** cfg.m), [0.0]])
            u = u + dt * np.diff(flux) / vol
            t += dt
        sups.append(u.max())
    return np.array(sups)


def test_large_fixed_steps_keep_the_invariants(flat_model):
    # 100 times the explicit stability limit of the higher datum
    vol, _, cond_sum, u0 = _finite_volumes(
        _flat_config(flat_model, initial=pme.Characteristic(1.0, 1.5)))
    dt = 100.0 * _explicit_limit(u0, vol, cond_sum, 2.0)
    lo, hi = [pme.pme_run(_flat_config(flat_model, initial=pme.Characteristic(1.0, h),
                                       t_end=5.0, dt_fixed=dt)) for h in (1.0, 1.5)]
    for run in (lo, hi):
        assert not run.stopped_early
        assert run.newton_iterations >= run.steps
        masses = np.array([s.mass for s in run.states])
        assert np.max(np.abs(masses / masses[0] - 1.0)) < 1e-12
        assert all(np.all(s.u >= 0.0) for s in run.states)
    for a, b in zip(lo.states, hi.states):
        assert np.all(a.u <= b.u + 1e-12)


def test_halving_the_growth_factor_keeps_the_slope(flat_model, monkeypatch):
    slopes = []
    for g in (0.02, 0.01):
        monkeypatch.setattr(pme, "_GROWTH", g)
        run = pme.pme_run(_flat_config(flat_model, t_end=200.0, n_cells=600))
        slopes.append(pme.fit_smoothing(run.states, "power_only",
                                        window=(2.0, 200.0)).power_exponent)
    assert abs(slopes[0] - slopes[1]) < 1e-3


def test_gap_to_the_explicit_oracle_is_first_order(flat_model, monkeypatch):
    # gap = C g + e0, where e0 (the initial steps of length dt0 and the
    # oracle's own error) does not depend on g: successive halvings of g
    # halve the change in the gap
    cfg = _flat_config(flat_model, t_end=20.0, n_cells=200,
                       output_times=np.geomspace(2e-3, 20.0, 40))
    oracle = _explicit_sups(cfg)
    late = np.concatenate([[0.0], cfg.output_times]) >= 2.0
    gaps = []
    for g in (0.04, 0.02, 0.01):
        monkeypatch.setattr(pme, "_GROWTH", g)
        sups = np.array([s.sup for s in pme.pme_run(cfg).states])
        gaps.append(float(np.max(np.abs(sups[late] / oracle[late] - 1.0))))
    assert gaps[0] > gaps[1] > gaps[2]
    assert (gaps[0] - gaps[1]) / (gaps[1] - gaps[2]) == pytest.approx(2.0, abs=0.3)


def test_newton_failure_names_the_time(flat_model, monkeypatch):
    monkeypatch.setattr(pme, "_NEWTON_CAP", 1)
    with pytest.raises(StabilityFailure, match=r"Newton did not converge .* at t = "):
        pme.pme_run(_flat_config(flat_model, t_end=1.0))


def test_singular_newton_system_names_the_time(flat_model, monkeypatch):
    monkeypatch.setattr(pme, "gtsv_solver", lambda dl, d, du, b: lambda k: 1)
    with pytest.raises(StabilityFailure, match=r"singular Newton system at t = "):
        pme.pme_run(_flat_config(flat_model, t_end=1.0))


# ---------------------------------------------------------------------------
# the Newton window against the full-domain solve
# ---------------------------------------------------------------------------

def _full_domain_run(cfg):
    """Oracle: pme_run's stepping with every Newton system over all n_cells
    cells, as it was before the window.  Returns the (t, u) of every state,
    the step and Newton counts and the stop reason."""
    m = cfg.m
    vol, cond, cond_sum, u = _finite_volumes(cfg)
    sup0 = float(np.max(u))
    thr = pme._SUPPORT_THRESHOLD * sup0
    out_t = cfg.output_times
    if out_t is None:
        out_t = np.geomspace(cfg.t_end * 1e-4, cfg.t_end, 60)
    out_t = np.unique(np.append(np.asarray(out_t, float), 0.0))
    flux = np.zeros(cfg.n_cells + 1)
    iterations = 0

    def backward_euler(t_new):
        nonlocal iterations
        dt = t_new - t
        off, dt_sum, tol = -dt * cond, dt * cond_sum, pme._NEWTON_TOL * u.max()
        x = np.maximum(u + dt * rate, 0.0)
        for _ in range(pme._NEWTON_CAP):
            xp = np.maximum(x, 0.0)
            v, dphi = xp ** m, m * xp ** (m - 1.0)
            flux[1:-1] = off * (v[1:] - v[:-1])
            res = vol * (x - u) + flux[1:] - flux[:-1]
            diag = vol + dt_sum * dphi
            if (np.abs(res) / diag).max() <= tol:
                assert x.min() >= -1e-10 * max(sup0, 1.0)
                return np.maximum(x, 0.0)
            info = pme.gtsv_solver(off * dphi[:-1], diag, off * dphi[1:], res)(len(res))
            assert info == 0
            x = x - res
            iterations += 1
        raise AssertionError("Newton did not converge")

    dt0 = float(np.min(vol / cond_sum)) / (m * sup0 ** (m - 1.0)) if sup0 > 0 else cfg.t_end
    states = [(0.0, u.copy())]
    reason, t, steps, rate = None, 0.0, 0, 0.0
    for t_next in out_t[1:]:
        while t < t_next and reason is None:
            dt = max(dt0, pme._GROWTH * t) if cfg.dt_fixed is None else cfg.dt_fixed
            t_new = min(t + dt, t_next)
            u_new = backward_euler(t_new)
            while u_new[-2:].max() > thr:
                t_new = t + 0.5 * (t_new - t)
                u_new = backward_euler(t_new)
            rate = (u_new - u) / (t_new - t)
            u, t, steps = u_new, t_new, steps + 1
            reason = "support-reached-boundary" if u[-3] > thr else None
        states.append((float(t), u.copy()))
        if reason is not None:
            break
    return states, steps, iterations, reason


@pytest.fixture(scope="module")
def criterion9_model():
    return geo.build_model(geo.PowerLaw(1.0, 1.0, 1.0), 3, 130.0)


def _criterion9_config(model, **kw):
    base = dict(m=2.0, model=model, R_domain=100.0, initial=pme.Characteristic(2.0, 4.0),
                t_end=1e10, n_cells=1000)
    base.update(kw)
    return pme.PMEConfig(**base)


_ORACLE_CASES = {
    "flat": lambda flat, c9: _flat_config(flat),
    "criterion9": lambda flat, c9: _criterion9_config(c9, t_end=1e5),
    "quasi": lambda flat, c9: pme.PMEConfig(
        m=2.0, model=geo.build_model(geo.PowerLaw(2.0, 2.0, 1.0), 3, 60.0), R_domain=40.0,
        initial=pme.Characteristic(1.0, 1.0), t_end=500.0, n_cells=800),
    "gaussian-m1.5": lambda flat, c9: _flat_config(flat, m=1.5,
                                                  initial=pme.GaussianLike(1.0, 2.0)),
    "gaussian-m3": lambda flat, c9: _flat_config(flat, m=3.0, initial=pme.GaussianLike(1.0)),
    # 83 times the explicit stability limit of the datum
    "large-fixed-steps": lambda flat, c9: _flat_config(flat, t_end=5.0, dt_fixed=0.05),
    "guard-stop": lambda flat, c9: _flat_config(flat, R_domain=6.0, t_end=2000.0),
    "zero": lambda flat, c9: _flat_config(flat, t_end=1.0, initial=pme.CustomTable(
        r=np.array([0.0, 1.0]), u=np.array([0.0, 0.0]))),
}


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_newton_window_matches_the_full_domain_solve(flat_model, criterion9_model, case):
    cfg = _ORACLE_CASES[case](flat_model, criterion9_model)
    run = pme.pme_run(cfg)
    states, steps, iterations, reason = _full_domain_run(cfg)
    assert (run.steps, run.newton_iterations, run.stop_reason) == (steps, iterations, reason)
    assert len(run.states) == len(states)
    for state, (t, u) in zip(run.states, states):
        assert state.t == t
        assert np.array_equal(state.u, u)
    if case == "guard-stop":  # the window reached the wall
        assert reason == "support-reached-boundary"


def test_newton_systems_stop_near_the_front(criterion9_model, monkeypatch):
    # the front of the criterion-9 run reaches r = 40 of 100 only at t = 1e10
    sizes, gtsv_solver = [], pme.gtsv_solver

    def counting(dl, d, du, b):
        solve = gtsv_solver(dl, d, du, b)

        def counted(k):
            sizes.append(k)
            return solve(k)

        return counted

    monkeypatch.setattr(pme, "gtsv_solver", counting)
    run = pme.pme_run(_criterion9_config(criterion9_model))
    assert len(sizes) == run.newton_iterations
    assert np.mean(sizes) < 1000 / 2


def test_barenblatt_solution_within_one_percent(flat_model):
    # flat N = 3, m = 2: U(r, t) = t^(-3/5) (1 - r^2 t^(-2/5) / 20)_+, started at t = 1
    def barenblatt(r, t):
        return t ** -0.6 * np.maximum(1.0 - r ** 2 * t ** -0.4 / 20.0, 0.0)

    faces = np.linspace(0.0, 24.0, 801)
    centers = 0.5 * (faces[:-1] + faces[1:])
    times = np.array([10.0, 100.0, 1000.0])
    run = pme.pme_run(_flat_config(flat_model, n_cells=800, t_end=999.0,
                                   initial=pme.CustomTable(centers, barenblatt(centers, 1.0)),
                                   output_times=times - 1.0))
    assert not run.stopped_early
    for state, t in zip(run.states[1:], times):
        exact = barenblatt(run.r_centers, t)
        assert np.max(np.abs(state.u - exact)) < 0.01 * np.max(exact)
