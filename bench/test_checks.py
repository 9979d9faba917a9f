"""Each output check accepts a correct document and rejects a perturbed one.

Run with ``python3 -m pytest bench -q``.  The good documents carry the
values the program prints today; the perturbations are the smallest
errors each check is meant to catch.
"""

import copy
import math
import random

import pytest

import checks as C
from workloads import WORKLOADS


def col(values):
    return [repr(float(v)) for v in values]


# -- closed forms --------------------------------------------------------------

def test_closed_forms_match_the_stated_values():
    assert 1 / C.aubin_talenti_half_line(3) == pytest.approx(1.006709, abs=1e-6)
    assert C.hyperbolic_gap_n3(1.0, 20.0) == pytest.approx(1.024674, abs=1e-6)
    assert C.hyperbolic_B2(3, 1.0) == 0.5
    assert C.flat_critical_B(3) == pytest.approx(3 ** (-1 / 6), rel=1e-15)
    assert C.effective_dimension(3, 2.0) == 5.0
    assert C.quasi_threshold(3, 2.0) == pytest.approx(10 / 3, rel=1e-15)
    assert C.pme_decay_exponent(3, 2.0) == pytest.approx(-0.6, rel=1e-15)
    assert C.certificate_doubling_factor(3, 1.0, 2.0) == pytest.approx(math.sqrt(2), rel=1e-15)


# -- one test per check: good passes, each perturbation is rejected ------------

def test_hyperbolic_model():
    r = [0.0, 0.5, 1.0, 5.0, 20.0]
    good_csv = {"r": col(r), "psi": col(math.sinh(x) for x in r),
                "dpsi": col(math.cosh(x) for x in r)}
    good_json = {"cartan_hadamard": True}
    assert C.check_hyperbolic_model(good_csv, good_json, k=1.0) == []
    bad = copy.deepcopy(good_csv)
    bad["psi"][2] = repr(math.sinh(1.0) * (1 + 1e-6))
    assert C.check_hyperbolic_model(bad, good_json, k=1.0)
    assert C.check_hyperbolic_model(good_csv, {"cartan_hadamard": False}, k=1.0)


def _power_docs():
    p = [2.02, 2.1, 2.2]
    B = [9.0955, 1.8832, 1.0251]
    doc = {"regression": {"fitted_slope": -0.9488},
           "reports": [{"p": x, "r_bar": r, "crit_residual": 1e-9, "divergent": False}
                       for x, r in zip(p, (2525.1, 87.3, 27.6))]}
    csv = {"p": col(p), "B": col(B), "lemma_bound": col(3 * b for b in B)}
    return doc, csv


def test_power_sweep():
    doc, csv = _power_docs()
    assert C.check_power_sweep(doc, csv, beta=1.0, rmax=20000.0) == []
    for mutate in (
            lambda d, c: d["regression"].update(fitted_slope=0.9488),  # wrong sign
            lambda d, c: d["regression"].update(fitted_slope=-1.72),
            lambda d, c: d["reports"][0].update(r_bar=20000.0),  # truncated at Rmax
            lambda d, c: d["reports"][1].update(crit_residual=None),
            lambda d, c: d["reports"][2].update(crit_residual=2e-6),
            lambda d, c: c["lemma_bound"].__setitem__(1, "1.8"),
            lambda d, c: c["B"].__setitem__(0, "inf")):
        d, c = _power_docs()
        mutate(d, c)
        assert C.check_power_sweep(d, c, beta=1.0, rmax=20000.0)


def test_quasi_threshold_sweep():
    good = {"p": [3.0, 3.3, 3.4, 6.0], "B": ["inf", "inf", 0.5159, 0.8327],
            "divergent": [True, True, False, False]}
    assert C.check_quasi_threshold_sweep(good, N=3, c1=2.0) == []
    for i, flip in ((1, False), (2, True)):
        bad = copy.deepcopy(good)
        bad["divergent"][i] = flip
        assert C.check_quasi_threshold_sweep(bad, N=3, c1=2.0)
    bad = copy.deepcopy(good)
    bad["B"][3] = "inf"
    assert C.check_quasi_threshold_sweep(bad, N=3, c1=2.0)


def test_sqrt_p_sweep():
    good = {"regression": {"fitted_slope": 0.47}, "divergent": [False] * 8}
    assert C.check_sqrt_p_sweep(good) == []
    for slope in (-0.47, 0.36, 0.61):
        assert C.check_sqrt_p_sweep({**good, "regression": {"fitted_slope": slope}})
    assert C.check_sqrt_p_sweep({**good, "divergent": [False] * 7 + [True]})


def test_hyperbolic_sweep():
    good = {"p": [2.0, 3.0, 6.0], "B": [0.5000004, 0.4148, 0.8327],
            "divergent": [False, False, False]}
    assert C.check_hyperbolic_sweep(good, N=3, k=1.0) == []
    assert C.check_hyperbolic_sweep({**good, "B": [0.5012, 0.4148, 0.8327]}, N=3, k=1.0)
    assert C.check_hyperbolic_sweep({**good, "B": [0.5, "inf", 0.8327],
                                     "divergent": [False, True, False]}, N=3, k=1.0)
    assert C.check_hyperbolic_sweep({**good, "p": [2.5, 3.0, 6.0]}, N=3, k=1.0)


def test_hyperbolic_poincare():
    assert C.check_hyperbolic_poincare({"lambda1": 1.0246761092696883}, k=1.0, R=20.0) == []
    assert C.check_hyperbolic_poincare({"lambda1": 1.0246761092696883 + 1e-3},
                                       k=1.0, R=20.0)
    assert C.check_hyperbolic_poincare({"lambda1": 1.0246761092696883 - 1e-3},
                                       k=1.0, R=20.0)


def test_flat_rayleigh():
    good = {"supremum_B": 0.8326831776556051, "ratio": 1.0071207990863396,
            "converged": False}
    assert C.check_flat_rayleigh(good, N=3) == []
    assert C.check_flat_rayleigh({**good, "ratio": 1.0067}, N=3)
    assert C.check_flat_rayleigh({**good, "ratio": "nan"}, N=3)
    assert C.check_flat_rayleigh({**good, "supremum_B": 0.8326831776556051 + 1e-9}, N=3)
    assert C.check_flat_rayleigh({k: v for k, v in good.items() if k != "supremum_B"}, N=3)


def test_certificate():
    good = {"p": 2.0, "R": [50.0, 100.0, 200.0, 400.0], "conclusion": "grows",
            "lower_bound_on_C": [1.1106820663080539, 1.5797075330961374,
                                 2.2427983309411132, 3.180407387139955]}
    assert C.check_certificate(good, N=3, beta=1.0) == []
    assert C.check_certificate({**good, "conclusion": "bounded"}, N=3, beta=1.0)
    assert C.check_certificate({**good, "lower_bound_on_C": [1.0, 1.5, 2.25, 3.375]},
                               N=3, beta=1.0)
    assert C.check_certificate({**good, "R": [50.0, 100.0, 200.0, 300.0]}, N=3, beta=1.0)


def _pme_docs():
    t = [0.0] + [10.0 ** e for e in range(1, 9)]
    series = {"t": col(t), "sup": col(1.0 / (1 + x) ** 0.6 for x in t),
              "mass": col([4 * math.pi / 3] * len(t))}
    fit = {"stopped_early": False, "stop_reason": None,
           "power_only": {"power_exponent": -0.5978, "residual_rms": 3.0e-3},
           "power_with_log": {"residual_rms": 9.3e-4}}
    return series, fit


def test_pme():
    kwargs = dict(exponent=-0.6, exponent_tol=0.03, mass0=4 * math.pi / 3,
                  log_beats_power=True)
    series, fit = _pme_docs()
    assert C.check_pme(series, fit, **kwargs) == []
    for mutate in (
            lambda s, f: s["mass"].__setitem__(5, repr(4 * math.pi / 3 * (1 + 1e-5))),
            lambda s, f: s["mass"].__setitem__(slice(None), [repr(4.2)] * len(s["mass"])),
            lambda s, f: s["sup"].__setitem__(4, repr(float(s["sup"][3]) * (1 + 1e-12))),
            lambda s, f: f.update(stopped_early=True, stop_reason="support-reached-boundary"),
            lambda s, f: f["power_only"].update(power_exponent=-0.64),
            lambda s, f: f["power_only"].update(power_exponent=0.6),
            lambda s, f: f["power_with_log"].update(residual_rms=3.1e-3)):
        s, f = _pme_docs()
        mutate(s, f)
        assert C.check_pme(s, f, **kwargs)


# -- the seed decides the sweep exponents, and only them ------------------------

def test_sweep_exponents_follow_the_seed_and_stay_in_their_windows():
    def argv(seed):
        return [op.argv for op in WORKLOADS["sweep"](random.Random(seed))]

    assert argv(7) == argv(7)
    assert argv(7) != argv(8)
    windows = {"power": (2.02, 2.2), "quasi3": (2.1, 6.0), "quasi2": (10.0, 200.0),
               "hyperbolic": (2.0, 6.0)}
    for seed in range(50):
        for op in WORKLOADS["sweep"](random.Random(seed)):
            p = [float(x) for x in op.argv[op.argv.index("--p") + 1].split(",")]
            lo, hi = windows[op.name]
            assert all(lo <= x <= hi for x in p), (op.name, p)
            if op.name == "quasi3":
                assert not any(3.3 < x < 3.4 for x in p)
