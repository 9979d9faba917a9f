import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hadamard_ineq import cli, variational, weighted
from hadamard_ineq import geometry as geo
from hadamard_ineq.errors import ValidationError


def run_cli(argv):
    return cli.main(argv)


def test_model_smoke(tmp_path):
    out = tmp_path / "m"
    rc = run_cli(["model", "--profile", "hyperbolic", "--k", "1", "--n", "3",
                  "--rmax", "20", "--out-dir", str(out)])
    assert rc == 0
    for name in ("model.csv", "curvature.csv", "model.json"):
        assert (out / name).exists()
    lines = (out / "model.csv").read_text().splitlines()
    assert lines[0].startswith("# hadamard-ineq v")
    assert "config=" in lines[0] and "quantity=" in lines[0]
    assert lines[1] == "r,psi,dpsi"
    doc = json.loads((out / "model.json").read_text())
    assert doc["cartan_hadamard"] is True
    assert doc["meta"]["quantity"] == "model-summary"


def test_model_round_trips_at_full_precision(tmp_path):
    out = tmp_path / "m"
    run_cli(["model", "--profile", "hyperbolic", "--k", "1", "--n", "3",
             "--rmax", "20", "--out-dir", str(out)])
    rows = [l.split(",") for l in (out / "model.csv").read_text().splitlines()[2:]]
    r = np.array([float(x[0]) for x in rows])
    psi = np.array([float(x[1]) for x in rows])
    sel = r > 0
    assert np.max(np.abs(psi[sel] - np.sinh(r[sel]))) == 0.0  # 17 digits round trip


def test_model_checks_the_power_laws_laplacian_bound(tmp_path):
    out = tmp_path / "m"
    rc = run_cli(["model", "--profile", "power", "--c0", "1", "--beta", "1", "--r0", "1",
                  "--n", "3", "--rmax", "2000", "--out-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "model.json").read_text())
    assert doc["laplacian_lower_bound"] == {"c": 1.0, "r0": 1.0, "holds": True}


def test_json_format_prints_the_json_file(tmp_path, capsys):
    out = tmp_path / "m"
    rc = run_cli(["model", "--profile", "hyperbolic", "--k", "1", "--n", "3",
                  "--rmax", "20", "--format", "json", "--out-dir", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == (out / "model.json").read_text()


HYPERBOLIC_OVERFLOW = ["--profile", "hyperbolic", "--k", "1e4", "--n", "3", "--rmax", "20"]


@pytest.mark.parametrize("argv, code, err", [
    (["model"] + HYPERBOLIC_OVERFLOW, 2,
     "error: warping table overflows float64 at r = 7.10767; "
     "reduce Rmax or the curvature scale\n"),
    (["pme"] + HYPERBOLIC_OVERFLOW + ["--rdomain", "0.1", "--m", "2", "--t-end", "1e-3",
                                     "--r-support", "0.02"], 0, ""),
], ids=["model", "pme"])
def test_overflowing_warping_table_prints_no_numpy_warning(tmp_path, capsys, argv, code, err):
    # the sinh and cosh columns overflow; only the export table is refused,
    # and a RuntimeWarning would fail the test as an error
    assert run_cli(argv + ["--out-dir", str(tmp_path)]) == code
    assert capsys.readouterr().err == err


def test_model_validation_exit_code(tmp_path):
    rc = run_cli(["model", "--profile", "power", "--beta", "3", "--n", "3",
                  "--rmax", "20", "--out-dir", str(tmp_path)])
    assert rc == 2


def test_model_export_refuses_overflow(tmp_path, capsys):
    # psi ~ exp((4/3) r^(3/4)) passes 1e308 near r = 4324, far inside Rmax
    out = tmp_path / "m"
    rc = run_cli(["model", "--profile", "power", "--beta", "0.5", "--n", "3",
                  "--rmax", "20000", "--grid-kind", "log", "--grid", "6144",
                  "--out-dir", str(out)])
    assert rc == 2
    assert "overflows float64 at r = 432" in capsys.readouterr().err
    assert not (out / "model.csv").exists()
    model = geo.build_model(geo.PowerLaw(1.0, 0.5, 1.0), 3, 20000.0,
                            grid=geo.GridSpec(n=6144, kind="log"))
    with pytest.raises(ValidationError, match="overflows float64 at r = 432"):
        model.table()


@pytest.mark.parametrize("command", [["model"], ["sweep", "--p", "2.5"]])
def test_nonfinite_bessel_glue_is_a_numerical_failure(tmp_path, capsys, command):
    # nu = 1000 at beta = 1.999: the law itself is refused, before any table
    rc = run_cli(command + ["--profile", "power", "--c0", "0.05", "--beta", "1.999",
                            "--rmax", "20", "--out-dir", str(tmp_path / "m")])
    assert rc == 1
    assert "Bessel glue of c0 = 0.05, beta = 1.999 (nu = 1000)" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_sweep_hyperbolic_point(tmp_path):
    out = tmp_path / "s"
    rc = run_cli(["sweep", "--profile", "hyperbolic", "--k", "1", "--n", "3",
                  "--rmax", "20", "--p", "2", "--out-dir", str(out)])
    assert rc == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[1] == "p,B,r_bar,sandwich_upper,lemma_bound,divergent"
    cells = rows[2].split(",")
    assert float(cells[1]) == pytest.approx(0.5, abs=1e-6)
    assert cells[2] == "at_infinity"
    assert cells[5] == "False"


def test_sweep_divergent_rows_are_results(tmp_path):
    out = tmp_path / "q"
    rc = run_cli(["sweep", "--profile", "quasi", "--c1", "2", "--n", "3",
                  "--rmax", "1200", "--p", "3.0,4.0", "--out-dir", str(out)])
    assert rc == 0
    rows = (out / "sweep.csv").read_text().splitlines()[2:]
    assert rows[0].split(",")[5] == "True"
    assert rows[1].split(",")[5] == "False"


def _files(out) -> dict:
    return {path.name: path.read_bytes() for path in sorted(Path(out).iterdir())}


def test_jobs_is_accepted_only_as_one(tmp_path, capsys):
    args = ["sweep", "--profile", "quasi", "--c1", "2", "--n", "3",
            "--rmax", "1200", "--p", "3.5,4.0,5.0"]
    assert run_cli(args + ["--jobs", "1", "--out-dir", str(tmp_path / "one")]) == 0
    assert run_cli(args + ["--out-dir", str(tmp_path / "none")]) == 0
    assert _files(tmp_path / "one") == _files(tmp_path / "none")  # config hashes included
    capsys.readouterr()
    assert run_cli(args + ["--jobs", "2", "--out-dir", str(tmp_path / "two")]) == 2
    assert "argument --jobs: invalid choice: 2" in capsys.readouterr().err
    assert not (tmp_path / "two").exists()


def test_sweep_regression_summary(tmp_path):
    out = tmp_path / "r"
    rc = run_cli(["sweep", "--profile", "power", "--c0", "1", "--beta", "1",
                  "--r0", "1", "--n", "3", "--rmax", "20000",
                  "--grid-kind", "log", "--grid", "6144",
                  "--p", "2.02:2.2:10", "--regress", "p_to_2",
                  "--out-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "sweep.json").read_text())
    fit = doc["regression"]
    assert fit["predicted_slope"] == -1.0
    assert abs(fit["fitted_slope"] - fit["predicted_slope"]) < 0.15


POWER_SWEEP = ["sweep", "--profile", "power", "--c0", "1", "--beta", "1",
               "--r0", "1", "--n", "3", "--rmax", "20000",
               "--grid-kind", "log", "--grid", "6144",
               "--p", "2.02:2.2:10", "--regress", "p_to_2"]
FLAT_RAYLEIGH = ["rayleigh", "--profile", "euclidean", "--n", "3",
                 "--rmax", "60", "--rdomain", "50", "--p", "6"]


def test_sweep_regression_fits_the_written_column(tmp_path):
    # the fit must use the B values of the sweep itself, at its tolerance
    out = tmp_path / "r"
    assert run_cli(POWER_SWEEP + ["--tol", "refine=1e-3", "--out-dir", str(out)]) == 0
    doc = json.loads((out / "sweep.json").read_text())
    p, B = np.array(doc["p"]), np.array(doc["B"])
    x, y = np.log(p - 2.0), np.log(B)
    slope, intercept, residual = geo._line_fit(x, y)
    assert doc["regression"]["fitted_slope"] == slope
    assert doc["regression"]["intercept"] == intercept
    assert doc["regression"]["residual_rms"] == residual
    assert np.allclose((slope, intercept), np.polyfit(x, y, 1), rtol=1e-12, atol=0.0)


def test_a_regression_over_one_exponent_is_refused(tmp_path):
    # five copies of one p leave the line's slope undetermined
    out = tmp_path / "r"
    rc = run_cli(["sweep", "--profile", "hyperbolic", "--k", "1", "--n", "3", "--rmax", "20",
                  "--p", "2.5,2.5,2.5,2.5,2.5", "--regress", "p_large",
                  "--out-dir", str(out)])
    assert rc == 2
    assert not (out / "sweep.json").exists() and not (out / "sweep.csv").exists()


@pytest.mark.parametrize("argv, searches", [(POWER_SWEEP, 10), (FLAT_RAYLEIGH, 1)],
                         ids=["sweep", "rayleigh"])
def test_each_exponent_searched_once(tmp_path, monkeypatch, argv, searches):
    calls = []
    search = weighted.supremum_B

    def counted(*args, **kwargs):
        calls.append(args[1])
        return search(*args, **kwargs)

    for mod in (weighted, variational):
        if getattr(mod, "supremum_B", None) is search:
            monkeypatch.setattr(mod, "supremum_B", counted)
    assert run_cli(argv + ["--out-dir", str(tmp_path)]) == 0
    assert len(calls) == searches


README_CERTIFICATE = ["certificate", "--profile", "power", "--c0", "1", "--beta", "1",
                      "--r0", "1", "--n", "3", "--rmax", "2000", "--p", "2",
                      "--r", "50,100,200,400"]
# the criterion-9 decay run, stopped at t = 10 instead of 1e10
SHORT_CRITERION9 = ["pme", "--profile", "power", "--c0", "1", "--beta", "1", "--r0", "1",
                    "--n", "3", "--rmax", "130", "--rdomain", "100", "--m", "2",
                    "--r-support", "2", "--height", "4", "--t-end", "10",
                    "--cells", "1000", "--outputs", "90", "--fit-window", "1e8:1e10"]


@pytest.mark.parametrize("argv", [POWER_SWEEP, README_CERTIFICATE, SHORT_CRITERION9],
                         ids=["sweep", "certificate", "pme"])
def test_power_law_commands_never_integrate(tmp_path, monkeypatch, argv):
    def integrator(*args, **kwargs):
        raise AssertionError("the warping integrator ran")

    monkeypatch.setattr(geo, "_integrate_profile", integrator)
    assert run_cli(argv + ["--out-dir", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv", [
    ["model"],
    ["poincare", "--rdomain", "10"],
    ["certificate", "--p", "2", "--r", "2,4"],
    ["pme", "--m", "2", "--rdomain", "8", "--t-end", "1"],
], ids=["model", "poincare", "certificate", "pme"])
def test_tol_is_refused_where_nothing_reads_it(tmp_path, capsys, argv):
    rc = run_cli(argv + ["--profile", "euclidean", "--rmax", "10", "--tol", "bogus=1",
                         "--out-dir", str(tmp_path / "m")])
    assert rc == 2
    assert "unrecognized arguments: --tol bogus=1" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--p", "2,x"], "--p"),
    (["certificate", "--p", "2", "--r", "50,x"], "--r"),
    (["pme", "--m", "2", "--rdomain", "8", "--t-end", "1", "--fit-window", "1e8"],
     "--fit-window"),
], ids=["sweep_p", "certificate_r", "pme_fit_window"])
def test_malformed_values_are_usage_errors(tmp_path, capsys, argv, flag):
    rc = run_cli(argv + ["--profile", "euclidean", "--rmax", "10",
                         "--out-dir", str(tmp_path / "m")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ")
    assert "Traceback" not in err
    assert not (tmp_path / "m").exists()


README_POINCARE = ["poincare", "--profile", "hyperbolic", "--k", "1", "--n", "3", "--rmax", "20",
                   "--rdomain", "20"]
README_PME = ["pme", "--profile", "quasi", "--c1", "2", "--r0", "1", "--n", "3", "--rmax", "60",
              "--rdomain", "50", "--m", "2", "--r-support", "2", "--t-end", "500",
              "--cells", "800"]
# run in a fresh interpreter: pytest itself loads scipy.integrate for its warning filter
_IMPORT_GUARD = """
import json, os, sys
import hadamard_ineq.cli as cli
from hadamard_ineq import geometry as geo
lazy = ("scipy.integrate", "scipy.interpolate", "scipy.optimize")
out, commands = sys.argv[1], json.loads(sys.argv[2])
codes = [cli.main(argv + ["--out-dir", os.path.join(out, str(i))])
         for i, argv in enumerate(commands)]
loaded = [m for m in lazy if m in sys.modules]
sparse = "scipy.sparse.linalg" in sys.modules
model = geo.build_model(geo.Hyperbolic(1.0), 3, 5.0, method="ode")
print(json.dumps({"codes": codes, "loaded": loaded, "sparse": sparse, "built_by": model.built_by,
                  "psi": float(model.psi(2.0)), "after": [m for m in lazy if m in sys.modules]}))
"""


def test_readme_commands_load_no_ode_or_spline_code(tmp_path):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    commands = [POWER_SWEEP, README_POINCARE, FLAT_RAYLEIGH, README_PME]
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(tmp_path),
                           json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["codes"] == [0, 0, 0, 0]
    assert doc["loaded"] == []
    assert doc["sparse"] is False  # the spectral gap needs only LAPACK
    # the integrator alone loads them, on demand
    assert doc["built_by"] == "ode"
    assert doc["psi"] == pytest.approx(math.sinh(2.0), rel=1e-8)
    assert doc["after"] == ["scipy.integrate", "scipy.interpolate", "scipy.optimize"]


PME_FLAGS = ["pme", "--m", "2", "--rdomain", "8", "--t-end", "1"]
PME_TIMES = "--t-end must be positive and --outputs at least 2"


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--p", "nan"], "--p"),
    (["rayleigh", "--p", "inf", "--rdomain", "8"], "--p"),
    (["pme", "--m", "2", "--rdomain", "8", "--t-end", "inf"], "--t-end"),
    (["pme", "--m", "2", "--rdomain", "8", "--t-end", "nan"], "--t-end"),
    (PME_FLAGS + ["--height", "nan"], "--height"),
    (["pme", "--m", "inf", "--rdomain", "8", "--t-end", "1"], "--m"),
    (["sweep", "--p", "3", "--tol", "refine=nan"], "--tol"),
    (PME_FLAGS + ["--fit-window", "nan:1"], "--fit-window"),
    (["model", "--k", "nan"], "--k"),
], ids=["sweep_p", "rayleigh_p", "t_end_inf", "t_end_nan", "height", "m", "tol",
        "fit_window", "k"])
def test_nonfinite_numbers_are_usage_errors(tmp_path, capsys, argv, flag):
    profile = "hyperbolic" if flag == "--k" else "euclidean"
    rc = run_cli(argv + ["--profile", profile, "--rmax", "10",
                         "--out-dir", str(tmp_path / "m")])
    assert rc == 2
    err = capsys.readouterr().err
    assert any("error: " in line and flag in line for line in err.splitlines())
    assert "Traceback" not in err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("argv, message", [
    (["pme", "--m", "2", "--rdomain", "8", "--t-end", "0"], PME_TIMES),
    (PME_FLAGS + ["--outputs", "0"], PME_TIMES),
    (PME_FLAGS + ["--outputs", "-1"], PME_TIMES),
    (["pme", "--m", "2", "--rdomain", "8", "--t-end", "5", "--outputs", "1"], PME_TIMES),
    (["poincare", "--rdomain", "0"], "R_domain 0.0 must lie in"),
    (["poincare", "--rdomain", "-1"], "R_domain -1.0 must lie in"),
], ids=["t_end_0", "outputs_0", "outputs_-1", "outputs_1", "rdomain_0", "rdomain_-1"])
def test_degenerate_inputs_are_refused(tmp_path, capsys, argv, message):
    rc = run_cli(argv + ["--profile", "euclidean", "--rmax", "10",
                         "--out-dir", str(tmp_path / "m")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert not (tmp_path / "m").exists()


HYPERBOLIC_SWEEP = ["sweep", "--profile", "hyperbolic", "--k", "1", "--n", "3", "--rmax", "20",
                    "--p", "2.5,3"]


@pytest.mark.parametrize("argv, message", [
    (PME_FLAGS + ["--profile", "euclidean", "--rmax", "10", "--snapshots", "-4"],
     "--snapshots must be 0 or more, got -4"),
    (HYPERBOLIC_SWEEP + ["--tol", "refine=-1"], "bad --tol value in 'refine=-1'"),
    (HYPERBOLIC_SWEEP + ["--tol", "rayleigh=-5"], "bad --tol value in 'rayleigh=-5'"),
], ids=["snapshots", "tol_refine", "tol_rayleigh"])
def test_negative_counts_and_tolerances_are_usage_errors(tmp_path, capsys, argv, message):
    rc = run_cli(argv + ["--out-dir", str(tmp_path / "m")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("argv, message", [
    (HYPERBOLIC_SWEEP + ["--tol", "foo=1"],
     "bad --tol entry 'foo=1', expected KEY=VALUE with KEY one of refine, rayleigh"),
    (HYPERBOLIC_SWEEP[:-1] + ["2:3:2.5"], "--p '2:3:2.5' needs a positive whole count"),
], ids=["tol_key", "p_count"])
def test_an_unknown_tolerance_or_a_fractional_count_is_a_usage_error(tmp_path, capsys,
                                                                     argv, message):
    assert run_cli(argv + ["--out-dir", str(tmp_path / "m")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "m").exists()


def test_a_zero_tolerance_runs_to_the_cap(tmp_path):
    out = tmp_path / "m"
    assert run_cli(HYPERBOLIC_SWEEP + ["--tol", "refine=0", "--out-dir", str(out)]) == 0
    assert (out / "sweep.json").exists()


def test_poincare_on_a_large_hyperbolic_domain(tmp_path):
    # the eigenvalue on this mesh must pass the 1 % coarsening guard
    rc = run_cli(["poincare", "--profile", "hyperbolic", "--k", "1", "--n", "3",
                  "--rmax", "60", "--rdomain", "40", "--out-dir", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "poincare.json").read_text())
    assert doc["lambda1"] == pytest.approx(1.0 + (math.pi / 40.0) ** 2, rel=1e-4)


def test_poincare_command(tmp_path):
    out = tmp_path / "p"
    rc = run_cli(["poincare", "--profile", "hyperbolic", "--k", "1", "--n", "3",
                  "--rmax", "20", "--rdomain", "20", "--out-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "poincare.json").read_text())
    assert 0.95 <= doc["best_constant"] <= 1.001
    assert doc["mckean"]["poincare_constant"] == 1.0
    assert (out / "eigenfunction.csv").exists()
    dat = (out / "eigenfunction.gnuplot.dat").read_text().splitlines()
    assert dat[0].startswith("#") and len(dat[1].split()) == 2


def test_rayleigh_command(tmp_path):
    out = tmp_path / "r"
    rc = run_cli(["rayleigh", "--profile", "euclidean", "--n", "3",
                  "--rmax", "60", "--rdomain", "50", "--p", "6",
                  "--out-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "rayleigh.json").read_text())
    assert doc["ratio"] == pytest.approx(1.007, abs=0.05)
    assert doc["ratio"] >= 1.0 / doc["sandwich_upper"]


def test_rayleigh_starts_from_the_tent_on_a_divergent_weight(tmp_path):
    # flat N = 2 has no supremum to start from, so the descent starts from the tent
    out = tmp_path / "r"
    rc = run_cli(["rayleigh", "--profile", "euclidean", "--n", "2", "--rmax", "60",
                  "--rdomain", "50", "--p", "4", "--out-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "rayleigh.json").read_text())
    assert doc["ratio"] == pytest.approx(0.23000535711514883, rel=1e-12, abs=0.0)
    assert (doc["iterations"], doc["converged"]) == (12, True)
    assert "supremum_B" not in doc and "sandwich_upper" not in doc


def test_sweep_of_a_divergent_weight(tmp_path):
    out = tmp_path / "s"
    rc = run_cli(["sweep", "--profile", "euclidean", "--n", "2", "--rmax", "60",
                  "--p", "2.5,3,4", "--out-dir", str(out)])
    assert rc == 0
    rows = [row.split(",") for row in (out / "sweep.csv").read_text().splitlines()[2:]]
    assert [(row[0], row[1], row[5]) for row in rows] == [
        (p, "inf", "True") for p in ("2.5", "3", "4")]


def test_certificate_command(tmp_path):
    out = tmp_path / "c"
    rc = run_cli(["certificate", "--profile", "power", "--c0", "1", "--beta", "1",
                  "--r0", "1", "--n", "3", "--rmax", "2000", "--p", "2",
                  "--r", "50,100,200", "--out-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "certificate.json").read_text())
    assert doc["conclusion"] == "grows"
    vals = doc["lower_bound_on_C"]
    assert vals == sorted(vals)
    rows = (out / "certificate.csv").read_text().splitlines()
    assert rows[1] == "R,G,p,lower_bound_on_C,conclusion"
    assert len(rows) == 5


def test_certificate_refuses_a_radius_whose_double_passes_the_domain(tmp_path, capsys):
    # R = 900 <= 0.8 Rmax, but the conclusion also needs G at 2R = 1800 > 0.8 Rmax
    rc = run_cli(["certificate", "--profile", "power", "--c0", "1", "--beta", "1",
                  "--r0", "1", "--n", "3", "--rmax", "2000", "--p", "2",
                  "--r", "50,900", "--out-dir", str(tmp_path / "c")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "error: need 0 < R <= 0.4 Rmax = 800: the certificate also needs G at 2R = 1800")


@pytest.mark.parametrize("n", [400, 343])
def test_certificate_names_a_dimension_too_large(tmp_path, capsys, n):
    # N = 400: Gamma(N/2) overflows in the sphere area; N = 343: G^(N-2) overflows
    rc = run_cli(["certificate", "--profile", "power", "--n", str(n), "--rmax", "2000",
                  "--p", "2", "--r", "50", "--out-dir", str(tmp_path / "c")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: dimension N = {n} is too large")
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("argv, stem", [
    ("poincare --profile hyperbolic --k 1 --n 3 --rmax 20 --rdomain 20", "eigenfunction"),
    ("rayleigh --profile euclidean --n 3 --rmax 60 --rdomain 50 --p 6", "minimizer"),
], ids=["poincare", "rayleigh"])
def test_gnuplot_files_match_their_csvs(tmp_path, argv, stem):
    assert run_cli(argv.split() + ["--out-dir", str(tmp_path)]) == 0
    csv = (tmp_path / f"{stem}.csv").read_text().splitlines()
    dat = (tmp_path / f"{stem}.gnuplot.dat").read_text().splitlines()
    assert dat[0] == csv[0]
    assert dat[1:] == [row.replace(",", " ") for row in csv[2:]]


def test_pme_command(tmp_path):
    out = tmp_path / "d"
    rc = run_cli(["pme", "--profile", "quasi", "--c1", "2", "--n", "3",
                  "--rmax", "60", "--rdomain", "50", "--m", "2",
                  "--r-support", "2", "--t-end", "500", "--cells", "400",
                  "--out-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "pme_fit.json").read_text())
    assert doc["predicted_power_exponent"] == pytest.approx(-5.0 / 7.0)
    assert abs(doc["power_only"]["power_exponent"]
               - doc["predicted_power_exponent"]) < 0.1 * 5.0 / 7.0
    series = (out / "timeseries.csv").read_text().splitlines()
    assert series[1] == "t,sup,mass,support_edge"
    snapshots = sorted(out.glob("snapshot_*.csv"))
    assert len(snapshots) == len(series) - 2  # one profile per output time
    assert (out / "sup_vs_t.gnuplot.dat").exists()


def test_pme_fits_the_power_laws_log_correction(tmp_path):
    # beta = 1, m = 2: power_with_log pins the slope to -1/(m-1) = -1 and the
    # log exponent to (2+beta)/((m-1)(2-beta)) = 3; the power law has a log_fit_beta
    out = tmp_path / "d"
    rc = run_cli(["pme", "--profile", "power", "--c0", "1", "--beta", "1", "--r0", "1",
                  "--n", "3", "--rmax", "60", "--rdomain", "50", "--m", "2",
                  "--r-support", "2", "--t-end", "1e4", "--cells", "200",
                  "--out-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "pme_fit.json").read_text())
    assert "fit_error" not in doc
    assert doc["power_with_log"]["log_correction_exponent"] == 3.0
    assert doc["power_with_log"]["power_exponent"] == -1.0


@pytest.mark.parametrize("argv, n", [
    ("--profile quasi --n 400 --rmax 60 --rdomain 40", 400),  # Gamma(N/2) overflows
    ("--profile euclidean --n 343 --rmax 30 --rdomain 24 --cells 100", 343),  # the volumes do
    ("--profile euclidean --n 200 --rmax 30 --rdomain 24 --cells 1000", 200),  # r^199 -> 0
], ids=["sphere-area", "cell-volumes-overflow", "cell-volumes-underflow"])
def test_pme_names_a_dimension_too_large(tmp_path, capsys, argv, n):
    rc = run_cli(["pme"] + argv.split() + ["--m", "2", "--t-end", "1",
                                           "--out-dir", str(tmp_path / "d")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"dimension N = {n}" in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--profile", "power", "--r0", "0.25", "--p", "2.1"],
    ["sweep", "--profile", "quasi", "--r0", "0.5", "--p", "2.1"],
    ["poincare", "--profile", "power", "--r0", "0.25", "--rdomain", "0.9"],
    ["rayleigh", "--profile", "power", "--r0", "0.25", "--p", "2.1", "--rdomain", "0.9"],
], ids=["power-sweep", "quasi-sweep", "poincare", "rayleigh"])
def test_power_laws_run_below_rmax_one(tmp_path, argv):
    assert run_cli(argv + ["--n", "3", "--rmax", "0.9", "--out-dir", str(tmp_path / "o")]) == 0


def test_pme_snapshots_span_the_run(tmp_path):
    out = tmp_path / "d"
    rc = run_cli(["pme", "--profile", "euclidean", "--n", "3", "--rmax", "30",
                  "--rdomain", "24", "--m", "2", "--t-end", "20", "--cells", "200",
                  "--outputs", "12", "--snapshots", "5", "--out-dir", str(out)])
    assert rc == 0
    names = sorted(p.name for p in out.glob("snapshot_*.csv"))
    assert names == [f"snapshot_{j:03d}.csv" for j in range(5)]
    first, last = ((out / names[j]).read_text().splitlines()[0] for j in (0, -1))
    assert first.endswith("quantity=pme-profile-t=0")
    assert last.endswith("quantity=pme-profile-t=20")


SNAPSHOT_RUN = ["pme", "--profile", "euclidean", "--rmax", "10", "--m", "2", "--rdomain", "8",
                "--t-end", "1", "--outputs", "3"]


def test_more_snapshots_than_states_are_refused(tmp_path, capsys):
    # the run holds t = 0 and the 3 output times: 4 states
    assert run_cli(SNAPSHOT_RUN + ["--snapshots", "10", "--out-dir", str(tmp_path / "m")]) == 2
    assert capsys.readouterr().err == "error: --snapshots must be at most --outputs + 1 = 4, got 10\n"
    assert not (tmp_path / "m").exists()
    out = tmp_path / "all"
    assert run_cli(SNAPSHOT_RUN + ["--snapshots", "4", "--out-dir", str(out)]) == 0
    series = (out / "timeseries.csv").read_text().splitlines()[2:]
    times = [(out / f"snapshot_{j:03d}.csv").read_text().splitlines()[0].rpartition("t=")[2]
             for j in range(4)]
    assert times == [f"{float(row.split(',')[0]):.6g}" for row in series]
    assert sorted(p.name for p in out.glob("snapshot_*.csv"))[-1] == "snapshot_003.csv"


def test_a_run_that_stops_early_exports_every_state_it_holds(tmp_path):
    out = tmp_path / "d"
    rc = run_cli(["pme", "--profile", "euclidean", "--rmax", "10", "--m", "2", "--rdomain", "4",
                  "--t-end", "1000", "--outputs", "8", "--cells", "100", "--snapshots", "9",
                  "--out-dir", str(out)])
    assert rc == 0
    assert json.loads((out / "pme_fit.json").read_text())["stopped_early"]
    states = len((out / "timeseries.csv").read_text().splitlines()) - 2
    assert states < 9
    assert sorted(p.name for p in out.glob("snapshot_*.csv")) == [
        f"snapshot_{j:03d}.csv" for j in range(states)]


def test_pme_gaussian_datum(tmp_path):
    out = tmp_path / "d"
    rc = run_cli(["pme", "--profile", "euclidean", "--n", "3", "--rmax", "30",
                  "--rdomain", "24", "--m", "2", "--initial", "gaussian", "--scale", "1",
                  "--height", "2", "--t-end", "50", "--cells", "800", "--out-dir", str(out)])
    assert rc == 0
    rows = (out / "timeseries.csv").read_text().splitlines()[2:]
    mass = np.array([float(row.split(",")[2]) for row in rows])
    assert mass[0] == pytest.approx(2.0 * math.pi ** 1.5, rel=1e-3)  # 2 exp(-r^2) over R^3
    assert np.max(np.abs(mass / mass[0] - 1.0)) <= 1e-12


def test_config_file_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("rmax = 25\nk = 4\n# comment\n")
    out = tmp_path / "m"
    rc = run_cli(["model", "--profile", "hyperbolic", "--n", "3", "--k", "1",
                  "--config", str(cfgfile), "--out-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "model.json").read_text())
    # rmax comes from the file, k stays from the explicit flag
    assert doc["Rmax"] == 25.0
    rows = (out / "model.csv").read_text().splitlines()[2:]
    last = rows[-1].split(",")
    assert float(last[1]) == pytest.approx(math.sinh(25.0), rel=1e-12)


@pytest.mark.parametrize("start", ["1", "5"])
def test_a_graded_grid_starting_at_or_past_one_is_refused(tmp_path, capsys, start):
    # its geometric part runs from the start up to r = 1: from 5 it ran downward
    # and wrote B = 0.2263 at r_bar = 5 for p = 2.5, against 0.4056 at r_bar =
    # 1.436 from the default start; from 1 its 16 nodes were all equal
    out = tmp_path / "s"
    rc = run_cli(["sweep", "--profile", "hyperbolic", "--k", "1", "--n", "3",
                  "--rmax", "20", "--grid", "128", "--grid-start", start, "--p", "2.5,3",
                  "--out-dir", str(out)])
    assert rc == 2
    assert "--grid-kind log" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_missing_config_file(tmp_path):
    rc = run_cli(["model", "--profile", "euclidean", "--n", "3", "--rmax", "10",
                  "--config", str(tmp_path / "nope.cfg"), "--out-dir", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("flags, message", [
    (["--config", "."], "Is a directory: '.'"),
    (["--config", "latin1.cfg"], "latin1.cfg is not UTF-8 text (invalid start byte at byte 12)"),
    (["--out-dir", "plain.txt/m"], "Not a directory: 'plain.txt/m'"),
], ids=["config_is_a_directory", "config_not_utf8", "out_dir_below_a_file"])
def test_an_unusable_file_is_a_usage_error(tmp_path, monkeypatch, capsys, flags, message):
    monkeypatch.chdir(tmp_path)
    Path("latin1.cfg").write_bytes("rmax = 10 # \xb5m\n".encode("latin-1"))
    Path("plain.txt").write_text("")
    assert run_cli(["model", "--profile", "euclidean", "--out-dir", "m"] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(message + "\n") and err.count("\n") == 1
    assert not Path("m").exists()


def test_out_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("HADAMARD_INEQ_OUT", str(tmp_path / "envout"))
    rc = run_cli(["model", "--profile", "euclidean", "--n", "3", "--rmax", "10"])
    assert rc == 0
    assert (tmp_path / "envout" / "model.json").exists()


def test_abbreviated_flag_wins_over_config_file(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("rmax = 20\n")
    out = tmp_path / "m"
    rc = run_cli(["model", "--profile", "hyperbolic", "--rm", "30",
                  "--config", str(cfgfile), "--out-dir", str(out)])
    assert rc == 0
    assert json.loads((out / "model.json").read_text())["Rmax"] == 30.0


CONFIG_CASES = {
    "tol": (["tol = refine=1e-3"], ["--tol", "refine=1e-3"]),
    "grid_start": (["grid_start = 1e-5"], ["--grid-start", "1e-5"]),
    "tol_repeated": (["tol = refine=1e-3", "tol = rayleigh=1e-9"],
                     ["--tol", "refine=1e-3", "--tol", "rayleigh=1e-9"]),
}


@pytest.mark.parametrize("lines, flags", CONFIG_CASES.values(), ids=CONFIG_CASES.keys())
def test_config_file_matches_the_same_flags(tmp_path, lines, flags):
    base = ["sweep", "--profile", "hyperbolic", "--k", "1", "--n", "3",
            "--rmax", "20", "--p", "2.5,3"]
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("\n".join(lines) + "\n")
    dirs = {name: tmp_path / name for name in ("file", "flags", "default")}
    assert run_cli(base + ["--config", str(cfgfile), "--out-dir", str(dirs["file"])]) == 0
    assert run_cli(base + flags + ["--out-dir", str(dirs["flags"])]) == 0
    assert run_cli(base + ["--out-dir", str(dirs["default"])]) == 0
    for name in ("sweep.csv", "sweep.json"):
        assert (dirs["file"] / name).read_bytes() == (dirs["flags"] / name).read_bytes()
        # the setting reached the run: its config hash is not the default one
        assert (dirs["file"] / name).read_bytes() != (dirs["default"] / name).read_bytes()


@pytest.mark.parametrize("line, message", [
    ("rmaxx = 50", "unrecognized arguments: --rmaxx=50"),
    ("grid = many", "argument --grid: invalid int value: 'many'"),
    ("tol = refine=tight", "bad --tol value in 'refine=tight'"),
], ids=["unknown_key", "bad_value", "bad_tol_value"])
def test_config_file_errors_are_usage_errors(tmp_path, capsys, line, message):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(line + "\n")
    rc = run_cli(["sweep", "--profile", "euclidean", "--rmax", "10", "--p", "3",
                  "--config", str(cfgfile), "--out-dir", str(tmp_path / "m")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


REQUIRED_IN_FILE = {
    "sweep": (["sweep", "--k", "1", "--n", "3", "--rmax", "20"],
              ["profile = hyperbolic", "p = 2.5,3"], ["--profile", "hyperbolic", "--p", "2.5,3"]),
    "pme": (["pme", "--profile", "euclidean", "--rmax", "10", "--outputs", "3"],
            ["m = 2", "rdomain = 8", "t_end = 1"], ["--m", "2", "--rdomain", "8", "--t-end", "1"]),
    "certificate": (["certificate", "--profile", "power", "--rmax", "2000"],
                    ["p = 2", "r = 50,100"], ["--p", "2", "--r", "50,100"]),
}


@pytest.mark.parametrize("base, lines, flags", REQUIRED_IN_FILE.values(),
                         ids=REQUIRED_IN_FILE.keys())
def test_a_config_file_may_hold_required_flags(tmp_path, base, lines, flags):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("\n".join(lines) + "\n")
    assert run_cli(base + ["--config", str(cfgfile), "--out-dir", str(tmp_path / "file")]) == 0
    assert run_cli(base + flags + ["--out-dir", str(tmp_path / "flags")]) == 0
    assert _files(tmp_path / "file") == _files(tmp_path / "flags")  # config hashes included


def test_a_config_line_without_equals_is_a_usage_error(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("rmax = 10\nprofile euclidean\n")
    rc = run_cli(["model", "--config", str(cfgfile), "--out-dir", str(tmp_path / "m")])
    assert rc == 2
    assert capsys.readouterr().err == "error: bad config line: 'profile euclidean'\n"
    assert not (tmp_path / "m").exists()


def test_an_ambiguous_prefix_of_config_is_a_usage_error(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("rmax = 10\n")
    for value in (str(cfgfile), str(tmp_path / "nope.cfg")):
        rc = run_cli(["model", "--profile", "euclidean", "--c", value,
                      "--out-dir", str(tmp_path / "m")])
        assert rc == 2
        assert not (tmp_path / "m").exists()


def test_help_comes_before_a_missing_config_file(tmp_path, capsys):
    rc = run_cli(["model", "--help", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: hadamard-ineq model") and "--profile" in out
    assert err == ""


def test_an_ambiguous_prefix_is_reported_before_a_missing_file(tmp_path, capsys):
    rc = run_cli(["model", "--profile", "euclidean", "--c", str(tmp_path / "nope.cfg"),
                  "--out-dir", str(tmp_path / "m")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ambiguous option: --c could match --c0, --c1, --config" in err
    assert "not found" not in err
    assert not (tmp_path / "m").exists()


def test_an_unambiguous_prefix_of_config_reads_the_file(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("profile = euclidean\nrmax = 12\n")
    out = tmp_path / "m"
    assert run_cli(["model", "--conf", str(cfgfile), "--out-dir", str(out)]) == 0
    assert json.loads((out / "model.json").read_text())["Rmax"] == 12.0
    assert run_cli(["model", "--conf", str(tmp_path / "nope.cfg"), "--out-dir", str(out)]) == 2
    assert "nope.cfg not found" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["model", "--bogus"], 2),
    (["sweep", "--profile", "euclidean"], 2),
    (["--help"], 0),
    (["model", "--help"], 0),
    (["--version"], 0),
], ids=["unknown_flag", "missing_flag", "help", "command_help", "version"])
def test_main_returns_the_exit_status(argv, code):
    assert run_cli(argv) == code


# the quadratic law K = 2 r^-2 past r = 1, spelled as its own profile and as
# the power law at beta = 2
QUASI = ["--profile", "quasi", "--c1", "2", "--r0", "1"]
POWER_AT_2 = ["--profile", "power", "--c0", "2", "--beta", "2", "--r0", "1"]
QUASI_SWEEP = ["sweep", "--rmax", "1200", "--p", "3.5:5:5"]
SPELLED = {
    "model": ["model", "--rmax", "60"],
    "sweep": QUASI_SWEEP,
    "sweep_regress": QUASI_SWEEP + ["--regress", "p_to_2"],
    "pme": ["pme", "--rmax", "60", "--rdomain", "50", "--m", "2", "--r-support", "2",
            "--t-end", "50", "--cells", "200"],
}


@pytest.mark.parametrize("argv", SPELLED.values(), ids=SPELLED.keys())
def test_both_spellings_of_the_quadratic_law_report_alike(tmp_path, output_diff, argv):
    quasi, power = tmp_path / "quasi", tmp_path / "power"
    assert run_cli(argv + QUASI + ["--out-dir", str(quasi)]) == 0
    assert run_cli(argv + POWER_AT_2 + ["--out-dir", str(power)]) == 0
    if argv[0] == "model":  # whose summary names the spelling
        assert output_diff(quasi, power) == ["model.json"]
        docs = [json.loads((d / "model.json").read_text()) for d in (quasi, power)]
        assert [doc.pop("profile") for doc in docs] == ["quasi", "power"]
        assert [doc.pop("meta")["quantity"] for doc in docs] == ["model-summary"] * 2
        assert docs[0] == docs[1]
        return
    assert output_diff(quasi, power) == []
    if argv[0] == "sweep":  # lemma 4.2 bounds B at every p past the threshold 10/3
        rows = (power / "sweep.csv").read_text().splitlines()[2:]
        assert all(math.isfinite(float(row.split(",")[4])) for row in rows)
    else:
        doc = json.loads((power / "pme_fit.json").read_text())
        assert doc["predicted_power_exponent"] == pytest.approx(-5.0 / 7.0)


@pytest.mark.parametrize("argv, slope", [
    (["--profile", "hyperbolic", "--k", "1", "--rmax", "20", "--p", "2.1:3:5"], 0.0),
    (QUASI + ["--rmax", "1200", "--p", "3.5:5:5"], None),
], ids=["hyperbolic", "quasi"])
def test_predicted_slope_follows_the_law(tmp_path, argv, slope):
    assert run_cli(["sweep", "--regress", "p_to_2", "--out-dir", str(tmp_path)] + argv) == 0
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert doc["regression"]["predicted_slope"] == slope


@pytest.mark.parametrize("name", cli._PROFILES)
def test_every_law_answers_the_law_protocol(name):
    # a law that misses a member, or answers with the wrong type, fails here
    # rather than in a command run
    law = cli._PROFILES[name](cli.build_parser().parse_args(["model", "--profile", name]))
    floats = lambda values, count: (isinstance(values, tuple) and len(values) == count
                                    and all(type(v) is float for v in values))
    assert law.lemma31 is None or floats(law.lemma31, 2)
    r = np.geomspace(1e-3, 1e3, 13)
    barrier = law.barrier(r)
    assert barrier.shape == r.shape and barrier.dtype == float
    assert not np.any(np.isnan(barrier) | (barrier == np.inf))
    assert geo.check_comparison(geo.build_model(law, 3, 50.0), law.barrier).holds
    assert all(type(law.bound_on_B(3, p)) is float for p in (2.0, 2.5, 4.0))
    for answer in (law.p_to_2_slope, law.log_fit_beta, law.pme_dimension(3)):
        assert answer is None or type(answer) is float
    assert law.mckean(3) is None or floats(law.mckean(3), 3)
