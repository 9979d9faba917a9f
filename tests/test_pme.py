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
from hadamard_ineq.weighted import _gl5


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


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.inf, math.nan])
def test_dt_fixed_must_be_positive_and_finite(flat_model, dt):
    with pytest.raises(ValidationError, match="dt_fixed"):
        _flat_config(flat_model, dt_fixed=dt)


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
    assert pme.quasi_smoothing_exponent(5.0, 2.0) == pytest.approx(5.0 / 7.0)


# ---------------------------------------------------------------------------
# iteration-constant audit
# ---------------------------------------------------------------------------

def test_moser_chain_exponent_limit():
    # q = log(t+e), sigma = 1 + (sigma0-1)/log(t+e): time exponent -> -1/(m-1)
    m, sigma0 = 2.0, 1.4
    last = None
    for t in np.geomspace(1e2, 1e8, 7):
        q = math.log(t + math.e)
        sigma = 1.0 + (sigma0 - 1.0) / q
        chain = pme.moser_chain_constant(sigma, sigma0, q, m, 1.0, 1.0)
        gap = abs(chain.t_exponent + 1.0 / (m - 1.0))
        if last is not None:
            assert gap < last
        last = gap
    assert last < 0.1


def test_moser_chain_bounded_factor():
    # everything except the explicit log correction stays uniformly bounded
    m, sigma0 = 2.0, 1.4
    vals = []
    for t in np.geomspace(1e2, 1e12, 11):
        q = math.log(t + math.e)
        sigma = 1.0 + (sigma0 - 1.0) / q
        vals.append(pme.moser_chain_constant(sigma, sigma0, q, m, 1.0, 1.0).bounded_factor)
    assert np.all(np.isfinite(vals)) and np.all(np.asarray(vals) > 0)
    assert max(vals) < 100.0


def test_moser_chain_embedding_constant_blowup():
    # C_sigma ~ (sigma-1)^(-beta/(2-beta)) toward sigma = 1
    m, sigma0, q = 2.0, 1.5, 3.0
    sig = 1.0 + np.geomspace(1e-6, 1e-4, 6)
    vals = [pme.moser_chain_constant(float(s), sigma0, q, m, 1.0, 1.0).c_sigma
            for s in sig]
    slope = np.polyfit(np.log(sig - 1.0), np.log(vals), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.01)  # beta/(2-beta) = 1 at beta = 1


def test_moser_chain_validation():
    with pytest.raises(ParameterOutOfRange):
        pme.moser_chain_constant(1.5, 1.5, 3.0, 2.0, 1.0, 1.0)  # sigma = sigma0
    with pytest.raises(ParameterOutOfRange):
        pme.moser_chain_constant(0.9, 1.5, 3.0, 2.0, 1.0, 1.0)
    with pytest.raises(ParameterOutOfRange):
        pme.moser_chain_constant(1.2, 1.5, 3.0, 2.0, 2.5, 1.0)  # beta out of range
    with pytest.raises(ParameterOutOfRange):
        pme.moser_chain_constant(1.2, 3.2, 3.0, 2.0, 1.0, 1.0, N=3)  # sigma0 >= 2*/2


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
    u0 = pme._initial_values(cfg.initial, centers)
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
    monkeypatch.setattr(pme, "dgtsv", lambda dl, d, du, b, *overwrite: (dl, d, du, b, 1))
    with pytest.raises(StabilityFailure, match=r"singular Newton system at t = "):
        pme.pme_run(_flat_config(flat_model, t_end=1.0))
