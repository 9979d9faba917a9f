import json
import math

import numpy as np
import pytest

from hadamard_ineq import cli
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
        geo.model_to_csv(model, tmp_path / "table.csv")


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


def test_sweep_determinism_across_jobs(tmp_path):
    args = ["sweep", "--profile", "quasi", "--c1", "2", "--n", "3",
            "--rmax", "1200", "--p", "3.5,4.0,5.0"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--jobs", "1", "--out-dir", str(out1)]) == 0
    assert run_cli(args + ["--jobs", "4", "--out-dir", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "sweep.json").read_bytes() == (out2 / "sweep.json").read_bytes()


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


def test_missing_config_file(tmp_path):
    rc = run_cli(["model", "--profile", "euclidean", "--n", "3", "--rmax", "10",
                  "--config", str(tmp_path / "nope.cfg"), "--out-dir", str(tmp_path)])
    assert rc == 2


def test_out_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("HADAMARD_INEQ_OUT", str(tmp_path / "envout"))
    rc = run_cli(["model", "--profile", "euclidean", "--n", "3", "--rmax", "10"])
    assert rc == 0
    assert (tmp_path / "envout" / "model.json").exists()
