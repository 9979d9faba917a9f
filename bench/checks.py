"""Output checks against references computed apart from the program.

Every reference here is a closed form written out in this file; none of
them calls into ``hadamard_ineq``.  Each ``check_*`` function takes the
parsed output documents and returns a list of problems (empty when the
output is correct), so the tests can feed it perturbed documents.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path


# ---------------------------------------------------------------------------
# reading the CLI's output files
# ---------------------------------------------------------------------------

def read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def read_csv(path: Path) -> dict:
    """Columns of a CLI CSV file (first line is the provenance comment)."""
    with open(path, newline="") as f:
        lines = [line for line in f if not line.startswith("#")]
    rows = list(csv.reader(lines))
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def _num(x) -> float:
    """JSON/CSV cell as a float (the CLI writes non-finite values as text)."""
    if x is None or x == "":
        return math.nan
    return float(x)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def effective_dimension(N: int, c1: float) -> float:
    """Ntilde = (N + 1 + sqrt(1 + 4 c1) (N - 1)) / 2 for K = -c1 r^-2."""
    return (N + 1 + math.sqrt(1 + 4 * c1) * (N - 1)) / 2


def quasi_threshold(N: int, c1: float) -> float:
    """Exponent 2 Ntilde / (Ntilde - 2) below which B diverges."""
    nt = effective_dimension(N, c1)
    return 2 * nt / (nt - 2)


def pme_decay_exponent(dim: float, m: float) -> float:
    """Sup-norm decay exponent -d / (d (m - 1) + 2) in effective dimension d."""
    return -dim / (dim * (m - 1) + 2)


def hyperbolic_gap_n3(k: float, R: float) -> float:
    """Dirichlet gap of the geodesic ball of radius R in H^3(-k): k + pi^2/R^2."""
    return k + math.pi ** 2 / R ** 2


def hyperbolic_B2(N: int, k: float) -> float:
    """B(w, 2) = 1 / (sqrt(k) (N - 1)) for w = (sinh(sqrt(k) r)/sqrt(k))^(N-1)."""
    return 1 / (math.sqrt(k) * (N - 1))


def flat_critical_B(N: int) -> float:
    """Flat B at p = 2N/(N-2): Q(r) = (r^N/N)^(1/p) (r^(2-N)/(N-2))^(1/2)."""
    p = 2 * N / (N - 2)
    return N ** (-1 / p) * (N - 2) ** -0.5


def aubin_talenti_half_line(N: int) -> float:
    """Best constant C in ||g||_{p,w} <= C ||g'||_{2,w}, w = r^(N-1), p = 2N/(N-2).

    C = S_N * omega^(1/2 - 1/p), with S_N = (pi N (N-2))^(-1/2)
    (Gamma(N)/Gamma(N/2))^(1/N) the Aubin-Talenti constant on R^N and omega
    the area of the unit sphere, which the radial reduction divides out.
    """
    p = 2 * N / (N - 2)
    S = (math.pi * N * (N - 2)) ** -0.5 * (math.gamma(N) / math.gamma(N / 2)) ** (1 / N)
    omega = 2 * math.pi ** (N / 2) / math.gamma(N / 2)
    return S * omega ** (0.5 - 1 / p)


def certificate_doubling_factor(N: int, beta: float, p: float) -> float:
    """Growth of the certificate per doubling of R: G ~ R^(beta/2) raised to
    N (1/p - (N-2)/(2N))."""
    return 2 ** (beta / 2 * N * (1 / p - (N - 2) / (2 * N)))


# ---------------------------------------------------------------------------
# checks, one per kind of command
# ---------------------------------------------------------------------------

def check_hyperbolic_model(model_csv: dict, model_json: dict, k: float) -> list:
    problems = []
    s = math.sqrt(k)
    worst = 0.0
    for r, psi, dpsi in zip(model_csv["r"], model_csv["psi"], model_csv["dpsi"]):
        r, psi, dpsi = float(r), float(psi), float(dpsi)
        ref_psi = math.sinh(s * r) / s
        psi_err = abs(psi / ref_psi - 1) if r > 0 else abs(psi)
        worst = max(worst, psi_err, abs(dpsi / math.cosh(s * r) - 1))
    if not worst <= 1e-10:
        problems.append(f"warping table off sinh/cosh by {worst:.3g} relative")
    if model_json.get("cartan_hadamard") is not True:
        problems.append("hyperbolic model not reported Cartan-Hadamard")
    return problems


def check_power_sweep(sweep_json: dict, sweep_csv: dict, beta: float, rmax: float) -> list:
    """Power-law decay: blowup slope, interior maximizers, lemma 4.1 bound."""
    problems = []
    slope = _num(sweep_json["regression"]["fitted_slope"])
    predicted = -beta / (2 - beta)
    if not abs(slope - predicted) <= 0.15:
        problems.append(f"fitted slope {slope} not within 0.15 of {predicted}")
    for rep in sweep_json["reports"]:
        r_bar = _num(rep["r_bar"])
        crit = _num(rep["crit_residual"])
        if rep["divergent"] or not 0 < r_bar < rmax:
            problems.append(f"p={rep['p']}: maximizer r_bar={rep['r_bar']} not interior")
        if not crit < 1e-6:
            problems.append(f"p={rep['p']}: crit_residual={rep['crit_residual']}")
    for p, B, lb in zip(sweep_csv["p"], sweep_csv["B"], sweep_csv["lemma_bound"]):
        if not (math.isfinite(_num(B)) and _num(lb) >= _num(B)):
            problems.append(f"p={p}: lemma_bound {lb} below B {B}")
    return problems


def check_quasi_threshold_sweep(sweep_json: dict, N: int, c1: float) -> list:
    """divergent exactly when p < 2 Ntilde / (Ntilde - 2)."""
    problems = []
    threshold = quasi_threshold(N, c1)
    for p, B, div in zip(sweep_json["p"], sweep_json["B"], sweep_json["divergent"]):
        if div != (p < threshold):
            problems.append(f"p={p}: divergent={div} but threshold is {threshold}")
        if not div and not math.isfinite(_num(B)):
            problems.append(f"p={p}: non-divergent point with B={B}")
    return problems


def check_sqrt_p_sweep(sweep_json: dict) -> list:
    """Dimension 2 under K = -c1 r^-2: B grows like sqrt(p)."""
    problems = []
    slope = _num(sweep_json["regression"]["fitted_slope"])
    if not abs(slope - 0.5) <= 0.1:
        problems.append(f"fitted slope {slope} not within 0.1 of 0.5")
    if any(sweep_json["divergent"]):
        problems.append("divergent point in a p_large sweep")
    return problems


def check_hyperbolic_sweep(sweep_json: dict, N: int, k: float) -> list:
    problems = []
    for p, B, div in zip(sweep_json["p"], sweep_json["B"], sweep_json["divergent"]):
        if div or not math.isfinite(_num(B)):
            problems.append(f"p={p}: B={B} not finite")
        if p == 2.0 and not abs(_num(B) - hyperbolic_B2(N, k)) <= 1e-3:
            problems.append(f"B(2)={B} not within 1e-3 of {hyperbolic_B2(N, k)}")
    if 2.0 not in sweep_json["p"]:
        problems.append("p = 2 missing from the hyperbolic sweep")
    return problems


def check_hyperbolic_poincare(poincare_json: dict, k: float, R: float) -> list:
    lam = _num(poincare_json["lambda1"])
    ref = hyperbolic_gap_n3(k, R)
    if not abs(lam / ref - 1) <= 1e-5:
        return [f"lambda1={lam} not within 1e-5 relative of {ref}"]
    return []


def check_flat_rayleigh(rayleigh_json: dict, N: int) -> list:
    """Critical flat case: B = N^(-1/p) (N-2)^(-1/2), ratio >= 1/C (Aubin-Talenti).

    ``converged`` is not checked: the critical quotient has no minimizer on
    a ball, so the descent ending unconverged is the expected outcome.
    """
    problems = []
    B = _num(rayleigh_json.get("supremum_B"))
    if not abs(B - flat_critical_B(N)) <= 1e-10:
        problems.append(f"supremum_B={B} not within 1e-10 of {flat_critical_B(N)}")
    ratio = _num(rayleigh_json["ratio"])
    floor = 1 / aubin_talenti_half_line(N)
    if not (math.isfinite(ratio) and ratio >= floor):
        problems.append(f"Rayleigh ratio {ratio} below the Sobolev floor {floor}")
    return problems


def check_certificate(cert_json: dict, N: int, beta: float) -> list:
    problems = []
    if cert_json["conclusion"] != "grows":
        problems.append(f"conclusion={cert_json['conclusion']}")
    factor = certificate_doubling_factor(N, beta, _num(cert_json["p"]))
    R, bounds = cert_json["R"], cert_json["lower_bound_on_C"]
    for i in range(1, len(bounds)):
        if R[i] != 2 * R[i - 1]:
            problems.append(f"radii {R} are not a doubling sequence")
            break
        ratio = _num(bounds[i]) / _num(bounds[i - 1])
        if not abs(ratio / factor - 1) <= 0.02:
            problems.append(f"bound grows by {ratio} from R={R[i - 1]}, expected {factor}")
    return problems


def check_pme(series_csv: dict, fit_json: dict, exponent: float = None,
              exponent_tol: float = None, mass0: float = None,
              log_beats_power: bool = False) -> list:
    """Mass conservation, monotone sup norm, run to the end, decay fits."""
    problems = []
    mass = [float(x) for x in series_csv["mass"]]
    sup = [float(x) for x in series_csv["sup"]]
    drift = max(abs(x / mass[0] - 1) for x in mass)
    if not drift <= 1e-6:
        problems.append(f"mass drifts by {drift:.3g} relative")
    if mass0 is not None and not abs(mass[0] / mass0 - 1) <= 1e-6:
        problems.append(f"initial mass {mass[0]} is not {mass0}")
    if any(b > a for a, b in zip(sup, sup[1:])):
        problems.append("sup norm increases")
    if fit_json["stopped_early"]:
        problems.append(f"run stopped early: {fit_json['stop_reason']}")
    if exponent is not None:
        got = _num(fit_json["power_only"]["power_exponent"])
        if not abs(got - exponent) <= exponent_tol:
            problems.append(f"decay exponent {got} not within {exponent_tol} of {exponent}")
    if log_beats_power:
        r_log = _num(fit_json["power_with_log"]["residual_rms"])
        r_pow = _num(fit_json["power_only"]["residual_rms"])
        if not r_log < r_pow:
            problems.append(f"log-corrected residual {r_log} not below power residual {r_pow}")
    return problems
