"""geometry._line_fit, the one least-squares line of the package: the p -> 2
scaling law of ``sweep --regress`` and the decay law of ``pme_fit.json``.  It
is closed form, so no command calls LAPACK's least-squares solver through
np.polyfit or np.linalg.lstsq."""

import json
import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hadamard_ineq import cli, pme
from hadamard_ineq import geometry as geo
from hadamard_ineq.errors import ValidationError

ROOT = Path(__file__).resolve().parents[1]


def test_an_exact_line_is_recovered_exactly():
    x = np.arange(16.0)
    assert geo._line_fit(x, 3.0 * x - 2.0) == (3.0, -2.0, 0.0)


@pytest.mark.parametrize("x", [[0.9] * 5, [1.0]], ids=["repeated", "single"])
def test_one_abscissa_is_refused(x):
    with pytest.raises(ValidationError, match="at least two distinct abscissae"):
        geo._line_fit(np.array(x), np.arange(len(x), dtype=float))


def polyfit_line(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    return slope, intercept, np.sqrt(np.mean((y - (slope * x + intercept)) ** 2))


def sweep_series(out):
    doc = json.loads((out / "sweep.json").read_text())
    p = np.array(doc["p"])
    x = np.log(p - 2.0) if doc["regression"]["mode"] == "p_to_2" else np.log(p)
    fit = doc["regression"]
    return x, np.log(doc["B"]), (fit["fitted_slope"], fit["intercept"], fit["residual_rms"])


def pme_series(out):
    rows = (out / "timeseries.csv").read_text().splitlines()[2:]
    states = [SimpleNamespace(t=float(t), sup=float(sup))
              for t, sup, *_ in (row.split(",") for row in rows)]
    fit = json.loads((out / "pme_fit.json").read_text())["power_only"]
    t, sup, _ = pme._fit_series(states, tuple(fit["window"]))
    return (np.log(t), np.log(sup),
            (fit["power_exponent"], float(np.log(fit["K_fit"])), fit["residual_rms"]))


# the byte-gate outputs whose numbers come from a line fit
FITTED = {"readme/sweep": sweep_series, "sweep/power": sweep_series,
          "sweep/quasi2": sweep_series, "readme/pme": pme_series,
          "decay/criterion9": pme_series, "decay/flat": pme_series}


def test_no_command_calls_lapack_least_squares(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import decay_ops, readme_ops, sweep_ops

    ops = {f"{workload}/{op.name}": op.argv
           for workload, make_ops in (("readme", readme_ops), ("decay", decay_ops),
                                      ("sweep", sweep_ops))
           for op in make_ops(random.Random(1))}

    def refused(*args, **kwargs):
        raise AssertionError("LAPACK least squares called")

    with monkeypatch.context() as patch:
        patch.setattr(np, "polyfit", refused)
        patch.setattr(np.linalg, "lstsq", refused)
        for name, argv in ops.items():
            assert cli.main(argv + ["--out-dir", str(tmp_path / name)]) == 0, name

    for name, read in FITTED.items():
        x, y, written = read(tmp_path / name)
        fit = geo._line_fit(x, y)
        # exp and log of K_fit may round the intercept by an ulp
        assert np.allclose(fit, written, rtol=1e-15, atol=0.0), name
        assert np.allclose(fit, polyfit_line(x, y), rtol=1e-12, atol=0.0), name
