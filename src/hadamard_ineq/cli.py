"""Command-line front end.

Subcommands: ``model``, ``sweep``, ``poincare``, ``rayleigh``,
``certificate``, ``pme``.  Outputs are deterministic: identical resolved
configurations (flags > config file > defaults) produce byte-identical
files at any parallelism degree; worker fan-out is over independent
parameter points and results are assembled in parameter order.

Exit codes: 0 success (divergence flags are results, not failures),
1 numerical failure, 2 validation error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, geometry, pme, report_io, variational, weighted
from .errors import NumericalError, ValidationError

_PROFILES = ("euclidean", "hyperbolic", "power", "quasi")


def _add_common(sub):
    sub.add_argument("--out-dir", default=None,
                     help="output directory (default: $HADAMARD_INEQ_OUT or ./out)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="format of the summary printed to stdout")
    sub.add_argument("--jobs", type=int, default=1, help="parallel parameter points")
    sub.add_argument("--config", default=None, help="key = value config file")
    sub.add_argument("--tol", action="append", default=[], metavar="KEY=VALUE",
                     help="tolerance overrides (refine, rayleigh)")


def _add_profile(sub):
    sub.add_argument("--profile", choices=_PROFILES, required=True)
    sub.add_argument("--k", type=float, default=1.0, help="constant curvature level")
    sub.add_argument("--c0", type=float, default=1.0, help="power-law curvature amplitude")
    sub.add_argument("--beta", type=float, default=1.0, help="power-law decay exponent")
    sub.add_argument("--c1", type=float, default=2.0, help="quasi-Euclidean curvature amplitude")
    sub.add_argument("--r0", type=float, default=1.0, help="cap radius of the curvature law")
    sub.add_argument("--n", type=int, default=3, help="dimension")
    sub.add_argument("--rmax", type=float, default=20.0)
    sub.add_argument("--grid", type=int, default=4096, help="grid nodes")
    sub.add_argument("--grid-kind", choices=("graded", "log"), default="graded")
    sub.add_argument("--grid-start", type=float, default=None)


def build_parser():
    ap = argparse.ArgumentParser(prog="hadamard-ineq",
                                 description="weighted inequality and diffusion "
                                             "computations on radial model geometries")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sp = ap.add_subparsers(dest="command", required=True)

    m = sp.add_parser("model", help="build and export a model geometry")
    _add_profile(m)
    _add_common(m)

    s = sp.add_parser("sweep", help="supremum B over a grid of exponents")
    _add_profile(s)
    s.add_argument("--p", required=True,
                   help="comma list '2.02,2.1' or range 'lo:hi:count'")
    s.add_argument("--regress", choices=("none", "p_to_2", "p_large"), default="none")
    _add_common(s)

    q = sp.add_parser("poincare", help="spectral gap on a truncated domain")
    _add_profile(q)
    q.add_argument("--rdomain", type=float, required=True)
    _add_common(q)

    r = sp.add_parser("rayleigh", help="minimize the weighted Rayleigh quotient")
    _add_profile(r)
    r.add_argument("--p", type=float, required=True)
    r.add_argument("--rdomain", type=float, required=True)
    _add_common(r)

    c = sp.add_parser("certificate", help="nonradial failure growth certificate")
    _add_profile(c)
    c.add_argument("--p", type=float, required=True)
    c.add_argument("--r", required=True, help="comma list of radii")
    _add_common(c)

    d = sp.add_parser("pme", help="radial porous-medium run and decay fit")
    _add_profile(d)
    d.add_argument("--m", type=float, required=True)
    d.add_argument("--rdomain", type=float, required=True)
    d.add_argument("--initial", choices=("characteristic", "gaussian"),
                   default="characteristic")
    d.add_argument("--height", type=float, default=1.0)
    d.add_argument("--r-support", type=float, default=1.0)
    d.add_argument("--scale", type=float, default=1.0)
    d.add_argument("--t-end", type=float, required=True)
    d.add_argument("--cells", type=int, default=800)
    d.add_argument("--outputs", type=int, default=60)
    d.add_argument("--fit", choices=("power_only", "power_with_log", "both"),
                   default="both")
    d.add_argument("--fit-window", default=None, help="lo:hi time window")
    d.add_argument("--snapshots", type=int, default=0,
                   help="profile snapshots to export (0 = every output time)")
    _add_common(d)
    return ap


# ---------------------------------------------------------------------------
# config file and tolerance plumbing
# ---------------------------------------------------------------------------

def _apply_config_file(args, argv):
    if not args.config:
        return args
    path = Path(args.config)
    if not path.exists():
        raise ValidationError(f"config file {path} not found")
    overrides = {}
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"bad config line: {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        overrides[key.replace("-", "_")] = val
    # flags given on the command line win over the file
    given = {a.split("=")[0].lstrip("-").replace("-", "_")
             for a in argv if a.startswith("--")}
    for key, val in overrides.items():
        if key in given or not hasattr(args, key):
            continue
        cur = getattr(args, key)
        if isinstance(cur, bool):
            setattr(args, key, val.lower() in ("1", "true", "yes"))
        elif isinstance(cur, int):
            setattr(args, key, int(val))
        elif isinstance(cur, float):
            setattr(args, key, float(val))
        else:
            setattr(args, key, val)
    return args


def _tols(args) -> dict:
    out = {"refine": 1e-10, "rayleigh": 1e-11}
    for item in args.tol:
        if "=" not in item:
            raise ValidationError(f"bad --tol entry {item!r}, expected KEY=VALUE")
        key, val = item.split("=", 1)
        if key not in out:
            raise ValidationError(f"unknown tolerance {key!r}")
        out[key] = float(val)
    return out


def _out_dir(args) -> Path:
    if args.out_dir:
        return Path(args.out_dir)
    return Path(os.environ.get("HADAMARD_INEQ_OUT", "out"))


def _profile_from(args):
    if args.profile == "euclidean":
        return geometry.Euclidean()
    if args.profile == "hyperbolic":
        return geometry.Hyperbolic(args.k)
    if args.profile == "power":
        return geometry.PowerLaw(args.c0, args.beta, args.r0)
    return geometry.QuasiEuclideanOptimal(args.c1, args.r0)


def _model_from(args):
    grid = geometry.GridSpec(n=args.grid, kind=args.grid_kind, r_start=args.grid_start)
    return geometry.build_model(_profile_from(args), args.n, args.rmax, grid=grid)


def _resolved(args) -> dict:
    # jobs is excluded: parallelism degree must not change output identity
    skip = {"command", "config", "out_dir", "format", "jobs"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _parse_p_list(spec: str):
    if ":" in spec:
        lo, hi, count = spec.split(":")
        vals = np.linspace(float(lo), float(hi), int(count))
    else:
        vals = np.asarray([float(x) for x in spec.split(",")])
    if len(vals) == 0:
        raise ValidationError("empty exponent list")
    return np.sort(vals)


def _parallel_map(fn, items, jobs: int):
    if jobs <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(fn, items))


def _print_summary(args, json_path, csv_line=None):
    if args.format == "json":
        print(json_path.read_text(), end="")
    elif csv_line:
        print(csv_line)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_model(args) -> int:
    model = _model_from(args)
    out = _out_dir(args)
    h = report_io.config_hash(_resolved(args))
    report_io.write_csv(out / "model.csv", h, "model-warping-table",
                        ("r", "psi", "dpsi"), model.table())
    sample = model.grid_r[1:][:: max(1, len(model.grid_r) // 256)]
    reports = [geometry.curvature_at(model, float(r)) for r in sample]
    report_io.write_csv(out / "curvature.csv", h, "curvature-report",
                        ("r", "sect_radial", "ric_radial", "ric_tangential",
                         "laplacian_density"),
                        ((c.r, c.sect_radial, c.ric_radial, c.ric_tangential,
                          c.laplacian_density) for c in reports))
    flag, viol = geometry.is_cartan_hadamard(model)
    payload = {"profile": args.profile, "N": model.N, "Rmax": model.Rmax,
               "built_by": model.built_by, "cartan_hadamard": flag,
               "violation_radius": viol}
    if args.profile == "power":
        c, r0 = geometry.lemma31_constants(model)
        rep = geometry.check_comparison(model, geometry.Lemma31Bound(c, r0, args.beta))
        payload["laplacian_lower_bound"] = {"c": c, "r0": r0, "holds": rep.holds}
    jp = report_io.write_json(out / "model.json", h, "model-summary", payload)
    _print_summary(args, jp,
                   f"model written: CH={flag} nodes={len(model.grid_r)}")
    return 0


def cmd_sweep(args) -> int:
    model = _model_from(args)
    weight = weighted.build_weight(model)
    tols = _tols(args)
    p_values = _parse_p_list(args.p)
    out = _out_dir(args)
    h = report_io.config_hash(_resolved(args))

    lemma = None
    if args.profile == "power" and args.beta < 2.0:
        c, r0 = geometry.lemma31_constants(model)
        lemma = ("power", c, r0)
    elif args.profile == "quasi":
        lemma = ("quasi",) + weighted.lemma42_constants(model)
    elif args.profile == "hyperbolic":
        lemma = ("constant", weighted.mckean_bounds(args.n, args.k)[0])

    def one(p: float):
        rep = weighted.supremum_B(weight, float(p), refine_tol=tols["refine"])
        lb = math.nan
        crit = weighted.sobolev_critical(model.N)
        try:
            if lemma and lemma[0] == "power" and 2.0 < p < crit:
                lb = weighted.lemma41_bound(model.N, args.beta / 2.0,
                                            lemma[1], lemma[2], float(p))
            elif lemma and lemma[0] == "quasi" and p < crit:
                lb = weighted.lemma42_bound(model.N, lemma[1], lemma[2],
                                            lemma[3], lemma[4], float(p))
            elif lemma and lemma[0] == "constant" and p == 2.0:
                lb = lemma[1]
        except ValidationError:
            lb = math.nan
        return rep, lb

    results = _parallel_map(one, [float(p) for p in p_values], args.jobs)
    rows = []
    for p, (rep, lb) in zip(p_values, results):
        r_bar = ("at_infinity" if rep.at_infinity
                 else ("" if rep.r_bar is None else rep.r_bar))
        rows.append((p, rep.B, r_bar, rep.sandwich_upper, lb, rep.divergent))
    report_io.write_csv(out / "sweep.csv", h, "weighted-supremum-sweep",
                        ("p", "B", "r_bar", "sandwich_upper", "lemma_bound",
                         "divergent"), rows)

    payload = {"p": list(map(float, p_values)),
               "B": [rep.B for rep, _ in results],
               "divergent": [rep.divergent for rep, _ in results],
               "reports": [{"p": rep.p, "B": rep.B, "r_bar": rep.r_bar,
                            "at_infinity": rep.at_infinity,
                            "divergent": rep.divergent,
                            "sandwich_upper": rep.sandwich_upper,
                            "crit_residual": rep.crit_residual,
                            "search_trace": rep.search_trace}
                           for rep, _ in results]}
    if args.regress != "none":
        fit = weighted.scaling_regression(weight, p_values, args.regress)
        predicted = (-args.beta / (2.0 - args.beta)
                     if args.regress == "p_to_2" else 0.5)
        payload["regression"] = {"mode": args.regress, "fitted_slope": fit.slope,
                                 "intercept": fit.intercept,
                                 "residual_rms": fit.residual_rms,
                                 "predicted_slope": predicted}
    jp = report_io.write_json(out / "sweep.json", h, "weighted-supremum-sweep", payload)
    _print_summary(args, jp,
                   f"sweep of {len(p_values)} exponents written")
    return 0


def cmd_poincare(args) -> int:
    model = _model_from(args)
    weight = weighted.build_weight(model)
    res = variational.poincare_eigen(weight, args.rdomain)
    out = _out_dir(args)
    h = report_io.config_hash(_resolved(args))
    report_io.write_csv(out / "eigenfunction.csv", h, "spectral-gap-eigenfunction",
                        ("r", "g"), zip(res.r, res.eigenfunction))
    report_io.write_gnuplot(out / "eigenfunction.gnuplot.dat", h,
                            "spectral-gap-eigenfunction", res.r, res.eigenfunction)
    payload = {"lambda1": res.lambda1, "best_constant": res.best_constant,
               "R_domain": args.rdomain}
    if args.profile == "hyperbolic":
        payload["mckean"] = dict(zip(("sup_bound", "poincare_constant", "spectral_gap"),
                                     weighted.mckean_bounds(args.n, args.k)))
    jp = report_io.write_json(out / "poincare.json", h, "spectral-gap", payload)
    _print_summary(args, jp,
                   f"lambda1={res.lambda1:.6g} best_constant={res.best_constant:.6g}")
    return 0


def cmd_rayleigh(args) -> int:
    model = _model_from(args)
    weight = weighted.build_weight(model)
    tols = _tols(args)
    res = variational.rayleigh_minimize(weight, args.p, args.rdomain,
                                        tol=tols["rayleigh"])
    out = _out_dir(args)
    h = report_io.config_hash(_resolved(args))
    report_io.write_csv(out / "minimizer.csv", h, "rayleigh-minimizer",
                        ("r", "g"), zip(res.r, res.minimizer))
    report_io.write_gnuplot(out / "minimizer.gnuplot.dat", h, "rayleigh-minimizer",
                            res.r, res.minimizer)
    payload = {"p": args.p, "R_domain": args.rdomain, "ratio": res.ratio,
               "converged": res.converged, "iterations": res.iterations}
    rep = weighted.supremum_B(weight, args.p)
    if not rep.divergent:
        payload["supremum_B"] = rep.B
        payload["sandwich_upper"] = rep.sandwich_upper
    jp = report_io.write_json(out / "rayleigh.json", h, "rayleigh-ratio", payload)
    _print_summary(args, jp, f"ratio={res.ratio:.8g}")
    return 0


def cmd_certificate(args) -> int:
    model = _model_from(args)
    radii = sorted(float(x) for x in args.r.split(","))
    reports = _parallel_map(
        lambda R: variational.nonradial_certificate(model, args.p, R),
        radii, args.jobs)
    out = _out_dir(args)
    h = report_io.config_hash(_resolved(args))
    report_io.write_csv(out / "certificate.csv", h, "nonradial-failure-certificate",
                        ("R", "G", "p", "lower_bound_on_C", "conclusion"),
                        ((c.R, c.G, c.p, c.lower_bound_on_C, c.conclusion)
                         for c in reports))
    report_io.write_gnuplot(out / "certificate.gnuplot.dat", h,
                            "nonradial-failure-certificate",
                            [c.R for c in reports],
                            [c.lower_bound_on_C for c in reports])
    grows = all(c.conclusion == "grows" for c in reports)
    payload = {"p": args.p, "R": radii,
               "lower_bound_on_C": [c.lower_bound_on_C for c in reports],
               "G": [c.G for c in reports],
               "conclusion": "grows" if grows else "bounded"}
    jp = report_io.write_json(out / "certificate.json", h,
                              "nonradial-failure-certificate", payload)
    _print_summary(args, jp, f"conclusion={payload['conclusion']}")
    return 0


def cmd_pme(args) -> int:
    model = _model_from(args)
    if args.initial == "characteristic":
        datum = pme.Characteristic(args.r_support, args.height)
    else:
        datum = pme.GaussianLike(args.scale, args.height)
    outs = np.geomspace(args.t_end * 1e-6, args.t_end, args.outputs)
    cfg = pme.PMEConfig(m=args.m, model=model, R_domain=args.rdomain,
                        initial=datum, t_end=args.t_end, n_cells=args.cells,
                        output_times=outs)
    run = pme.pme_run(cfg)
    out = _out_dir(args)
    h = report_io.config_hash(_resolved(args))
    report_io.write_csv(out / "timeseries.csv", h, "pme-decay-series",
                        ("t", "sup", "mass", "support_edge"),
                        ((s.t, s.sup, s.mass, s.support_edge) for s in run.states))
    ts = [s.t for s in run.states if s.t > 0]
    sups = [s.sup for s in run.states if s.t > 0]
    report_io.write_gnuplot(out / "sup_vs_t.gnuplot.dat", h, "pme-decay-series",
                            ts, sups)
    if args.snapshots <= 0:
        idx = np.arange(len(run.states))
    else:
        idx = np.unique(np.linspace(0, len(run.states) - 1, args.snapshots).astype(int))
    for j, i in enumerate(idx):
        st = run.states[i]
        report_io.write_csv(out / f"snapshot_{j:03d}.csv", h,
                            f"pme-profile-t={st.t:.6g}",
                            ("r", "u"), zip(run.r_centers, st.u))

    window = None
    if args.fit_window:
        lo, hi = args.fit_window.split(":")
        window = (float(lo), float(hi))
    mass0 = run.states[0].mass
    payload = {"m": args.m, "mass": mass0, "steps": run.steps,
               "stopped_early": run.stopped_early, "stop_reason": run.stop_reason}
    beta = args.beta if args.profile == "power" else 0.0
    def fit_fields(fit):
        return {"power_exponent": fit.power_exponent,
                "log_correction_exponent": fit.log_correction_exponent,
                "K_fit": fit.K_fit, "window": fit.window,
                "residual_rms": fit.residual_rms, "n_points": fit.n_points}

    try:
        if args.fit in ("power_only", "both"):
            payload["power_only"] = fit_fields(
                pme.fit_smoothing(run.states, "power_only", window=window))
        if args.fit in ("power_with_log", "both") and args.profile in ("power", "hyperbolic"):
            payload["power_with_log"] = fit_fields(
                pme.fit_smoothing(run.states, "power_with_log", m=args.m,
                                  beta=beta, mass=mass0, window=window))
    except ValidationError as exc:
        payload["fit_error"] = str(exc)
    if args.profile == "quasi":
        ntilde, _ = weighted.critical_exponents(args.n, args.c1)
        payload["predicted_power_exponent"] = -pme.quasi_smoothing_exponent(ntilde, args.m)
    elif args.profile == "euclidean":
        payload["predicted_power_exponent"] = -pme.smoothing_exponent(args.n, args.m)
    jp = report_io.write_json(out / "pme_fit.json", h, "pme-decay-fit", payload)
    _print_summary(args, jp,
                   f"pme run: steps={run.steps} stopped_early={run.stopped_early}")
    return 0


_DISPATCH = {"model": cmd_model, "sweep": cmd_sweep, "poincare": cmd_poincare,
             "rayleigh": cmd_rayleigh, "certificate": cmd_certificate,
             "pme": cmd_pme}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(args, argv)
        return _DISPATCH[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
