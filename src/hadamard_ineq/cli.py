"""Command-line front end.

Subcommands: ``model``, ``sweep``, ``poincare``, ``rayleigh``,
``certificate``, ``pme``.  Outputs are deterministic: identical resolved
configurations produce byte-identical files.

``--config FILE`` reads each ``key = value`` line of FILE as the flag
``--key=value`` of the subcommand, placed before the command line's own
flags, which therefore win.  The file may hold a required flag; an unknown
key or a bad value is a usage error, and ``tol`` may repeat.  The file is
read only once the command line itself parses, so ``--help`` and the command
line's own usage errors come first.

Exit codes: 0 success (divergence flags are results, not failures),
1 numerical failure, 2 validation or usage error, or a config file or output
directory that cannot be read or written.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import io
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, geometry, pme, report_io, variational, weighted
from .errors import NumericalError, ValidationError

# the curvature profile each --profile choice builds from the parsed flags
_PROFILES = {
    "euclidean": lambda args: geometry.Euclidean(),
    "hyperbolic": lambda args: geometry.Hyperbolic(args.k),
    "power": lambda args: geometry.PowerLaw(args.c0, args.beta, args.r0),
    "quasi": lambda args: geometry.PowerLaw(args.c1, 2.0, args.r0),
}


def _finite(text: str) -> float:
    """A finite float: the type of every float flag and number in a list flag."""
    try:
        val = float(text)
    except ValueError:
        val = math.nan
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return val


def _shared_flags(required: bool):
    """The flags of every subcommand: the geometry and the outputs."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--profile", choices=_PROFILES, required=required)
    flags.add_argument("--k", type=_finite, default=1.0, help="constant curvature level")
    flags.add_argument("--c0", type=_finite, default=1.0, help="power-law curvature amplitude")
    flags.add_argument("--beta", type=_finite, default=1.0, help="power-law decay exponent")
    flags.add_argument("--c1", type=_finite, default=2.0,
                       help="quasi-Euclidean curvature amplitude")
    flags.add_argument("--r0", type=_finite, default=1.0, help="cap radius of the curvature law")
    flags.add_argument("--n", type=int, default=3, help="dimension")
    flags.add_argument("--rmax", type=_finite, default=20.0)
    flags.add_argument("--grid", type=int, default=4096, help="grid nodes")
    flags.add_argument("--grid-kind", choices=("graded", "log"), default="graded")
    flags.add_argument("--grid-start", type=_finite, default=None)
    flags.add_argument("--out-dir", default=None,
                       help="output directory (default: $HADAMARD_INEQ_OUT or ./out)")
    flags.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="format of the summary printed to stdout")
    # accepted only as 1, the single thread every command runs on
    flags.add_argument("--jobs", type=int, choices=(1,), default=1, help=argparse.SUPPRESS)
    flags.add_argument("--config", default=None,
                       help="file of key = value lines, each read as the flag --key=value")
    return flags


@functools.cache  # main parses twice, and a session may call it many times
def build_parser(required: bool = True):
    """The command-line parser; with ``required=False`` it requires no flag,
    as a config file may hold any of them."""
    ap = argparse.ArgumentParser(prog="hadamard-ineq",
                                 description="weighted inequality and diffusion "
                                             "computations on radial model geometries")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sp = ap.add_subparsers(dest="command", required=True)
    shared = [_shared_flags(required)]

    sp.add_parser("model", parents=shared, help="build and export a model geometry")

    s = sp.add_parser("sweep", parents=shared, help="supremum B over a grid of exponents")
    s.add_argument("--p", required=required,
                   help="comma list '2.02,2.1' or range 'lo:hi:count'")
    s.add_argument("--regress", choices=("none", "p_to_2", "p_large"), default="none")

    q = sp.add_parser("poincare", parents=shared, help="spectral gap on a truncated domain")
    q.add_argument("--rdomain", type=_finite, required=required)

    r = sp.add_parser("rayleigh", parents=shared,
                      help="minimize the weighted Rayleigh quotient")
    r.add_argument("--p", type=_finite, required=required)
    r.add_argument("--rdomain", type=_finite, required=required)
    for searching, name in ((s, "sweep"), (r, "rayleigh")):
        searching.add_argument("--tol", action="append", default=[], metavar="KEY=VALUE",
                               help=f"tolerance overrides ({', '.join(_TOLS[name])})")

    c = sp.add_parser("certificate", parents=shared,
                      help="nonradial failure growth certificate")
    c.add_argument("--p", type=_finite, required=required)
    c.add_argument("--r", required=required, help="comma list of radii")

    d = sp.add_parser("pme", parents=shared, help="radial porous-medium run and decay fit")
    d.add_argument("--m", type=_finite, required=required)
    d.add_argument("--rdomain", type=_finite, required=required)
    d.add_argument("--initial", choices=("characteristic", "gaussian"),
                   default="characteristic")
    d.add_argument("--height", type=_finite, default=1.0)
    d.add_argument("--r-support", type=_finite, default=1.0)
    d.add_argument("--scale", type=_finite, default=1.0)
    d.add_argument("--t-end", type=_finite, required=required)
    d.add_argument("--cells", type=int, default=800)
    d.add_argument("--outputs", type=int, default=60)
    d.add_argument("--fit", choices=("power_only", "power_with_log", "both"),
                   default="both")
    d.add_argument("--fit-window", default=None, help="lo:hi time window")
    d.add_argument("--snapshots", type=int, default=0,
                   help="profile snapshots to export (0 = every output time)")
    return ap


# ---------------------------------------------------------------------------
# config file and tolerance plumbing
# ---------------------------------------------------------------------------

def _config_path(argv):
    """The ``--config`` value of the command line, None when there is none or
    when the command line alone asks for help or the version or is a usage
    error: the full parse then prints that, and no file is read."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return build_parser(required=False).parse_args(argv).config
        except SystemExit:
            return None


def _config_flags(path) -> list:
    """The ``key = value`` lines of a config file as ``--key=value`` tokens."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config file {path} not found")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config file {path} is not UTF-8 text "
                              f"({exc.reason} at byte {exc.start})") from None
    flags = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"bad config line: {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        flags.append(f"--{key.replace('_', '-')}={val}")
    return flags


# the tolerances each searching command reads, with their defaults
_TOLS = {"sweep": {"refine": 1e-10}, "rayleigh": {"refine": 1e-10, "rayleigh": 1e-11}}


def _tols(args) -> dict:
    out = dict(_TOLS[args.command])
    for item in args.tol:
        key, _, val = item.partition("=")
        if key not in out:
            raise ValidationError(f"bad --tol entry {item!r}, expected KEY=VALUE "
                                  f"with KEY one of {', '.join(out)}")
        try:
            out[key] = _finite(val)
        except argparse.ArgumentTypeError:
            out[key] = math.nan
        if not out[key] >= 0.0:  # 0 runs to the iteration cap
            raise ValidationError(f"bad --tol value in {item!r}")
    return out


def _model_from(args):
    grid = geometry.GridSpec(n=args.grid, kind=args.grid_kind, r_start=args.grid_start)
    return geometry.build_model(_PROFILES[args.profile](args), args.n, args.rmax, grid=grid)


def _resolved(args) -> dict:
    # jobs is excluded, so that the accepted --jobs 1 moves no config hash
    skip = {"command", "config", "out_dir", "format", "jobs"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _floats(flag: str, spec: str, sep: str, count=None) -> list:
    """The finite numbers of a ``sep``-separated flag value, ``count`` of them if given."""
    try:
        vals = [_finite(x) for x in spec.split(sep)]
    except argparse.ArgumentTypeError:
        vals = []
    if not vals or (count and len(vals) != count):
        raise ValidationError(f"{flag} {spec!r} is not {count or 'a list of'} "
                              f"finite numbers separated by {sep!r}")
    return vals


def _parse_p_list(spec: str):
    if ":" in spec:
        lo, hi, count = _floats("--p", spec, ":", 3)
        if not (count.is_integer() and count >= 1):
            raise ValidationError(f"--p {spec!r} needs a positive whole count")
        vals = np.linspace(lo, hi, int(count))
    else:
        vals = np.asarray(_floats("--p", spec, ","))
    return np.sort(vals)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_model(args, model, out: Path, h: str):
    report_io.write_csv(out / "model.csv", h, "model-warping-table",
                        ("r", "psi", "dpsi"), model.table())
    sample = model.grid_r[1:][:: max(1, len(model.grid_r) // 256)]
    reports = [geometry.curvature_at(model, float(r)) for r in sample]
    names = ("r", "sect_radial", "ric_radial", "ric_tangential", "laplacian_density")
    report_io.write_csv(out / "curvature.csv", h, "curvature-report", names,
                        [[getattr(c, f) for c in reports] for f in names])
    flag, viol = geometry.is_cartan_hadamard(model)
    payload = {"profile": args.profile, "N": model.N, "Rmax": model.Rmax,
               "built_by": model.built_by, "cartan_hadamard": flag,
               "violation_radius": viol}
    if model.profile.lemma31 is not None:
        c, r0 = model.profile.lemma31
        holds = geometry.check_comparison(model, model.profile.barrier).holds
        payload["laplacian_lower_bound"] = {"c": c, "r0": r0, "holds": holds}
    return ("model.json", "model-summary", payload,
            f"model written: CH={flag} nodes={len(model.grid_r)}")


def cmd_sweep(args, model, out: Path, h: str):
    tols = _tols(args)
    p_values = _parse_p_list(args.p)
    weight = weighted.build_weight(model)
    reports = [weighted.supremum_B(weight, float(p), refine_tol=tols["refine"])
               for p in p_values]
    # fitted before anything is written, so a refused regression leaves no file
    fit = (weighted.scaling_regression(reports, args.regress)
           if args.regress != "none" else None)
    report_io.write_csv(out / "sweep.csv", h, "weighted-supremum-sweep",
                        ("p", "B", "r_bar", "sandwich_upper", "lemma_bound",
                         "divergent"),
                        (p_values, [rep.B for rep in reports],
                         ["at_infinity" if rep.at_infinity else rep.r_bar
                          for rep in reports],
                         [rep.sandwich_upper for rep in reports],
                         [model.profile.bound_on_B(model.N, float(p)) for p in p_values],
                         [rep.divergent for rep in reports]))

    payload = {"p": list(map(float, p_values)),
               "B": [rep.B for rep in reports],
               "divergent": [rep.divergent for rep in reports],
               "reports": [dataclasses.asdict(rep) for rep in reports]}
    if fit is not None:
        payload["regression"] = {"mode": args.regress, "fitted_slope": fit.slope,
                                 "intercept": fit.intercept,
                                 "residual_rms": fit.residual_rms,
                                 # B grows like sqrt(p) under every law
                                 "predicted_slope": (0.5 if args.regress == "p_large"
                                                     else model.profile.p_to_2_slope)}
    return ("sweep.json", "weighted-supremum-sweep", payload,
            f"sweep of {len(p_values)} exponents written")


def cmd_poincare(args, model, out: Path, h: str):
    weight = weighted.build_weight(model)
    res = variational.poincare_eigen(weight, args.rdomain)
    report_io.write_csv(out / "eigenfunction.csv", h, "spectral-gap-eigenfunction",
                        ("r", "g"), (res.r, res.eigenfunction))
    report_io.write_csv(out / "eigenfunction.gnuplot.dat", h,
                        "spectral-gap-eigenfunction", None, (res.r, res.eigenfunction))
    payload = {"lambda1": res.lambda1, "best_constant": res.best_constant,
               "R_domain": args.rdomain}
    mckean = model.profile.mckean(model.N)
    if mckean is not None:
        payload["mckean"] = dict(zip(("sup_bound", "poincare_constant", "spectral_gap"),
                                     mckean))
    return ("poincare.json", "spectral-gap", payload,
            f"lambda1={res.lambda1:.6g} best_constant={res.best_constant:.6g}")


def cmd_rayleigh(args, model, out: Path, h: str):
    tols = _tols(args)
    weight = weighted.build_weight(model)
    rep = weighted.supremum_B(weight, args.p, refine_tol=tols["refine"])
    res = variational.rayleigh_minimize(weight, args.p, args.rdomain, supremum=rep,
                                        tol=tols["rayleigh"])
    report_io.write_csv(out / "minimizer.csv", h, "rayleigh-minimizer",
                        ("r", "g"), (res.r, res.minimizer))
    report_io.write_csv(out / "minimizer.gnuplot.dat", h, "rayleigh-minimizer",
                        None, (res.r, res.minimizer))
    payload = {"p": args.p, "R_domain": args.rdomain, "ratio": res.ratio,
               "converged": res.converged, "iterations": res.iterations}
    if not rep.divergent:
        payload["supremum_B"] = rep.B
        payload["sandwich_upper"] = rep.sandwich_upper
    return "rayleigh.json", "rayleigh-ratio", payload, f"ratio={res.ratio:.8g}"


def cmd_certificate(args, model, out: Path, h: str):
    radii = sorted(_floats("--r", args.r, ","))
    reports = variational.certificate_scan(model, args.p, radii)
    names = ("R", "G", "p", "lower_bound_on_C", "conclusion")
    report_io.write_csv(out / "certificate.csv", h, "nonradial-failure-certificate",
                        names, [[getattr(c, f) for c in reports] for f in names])
    report_io.write_csv(out / "certificate.gnuplot.dat", h, "nonradial-failure-certificate",
                        None, ([c.R for c in reports], [c.lower_bound_on_C for c in reports]))
    conclusion = "grows" if all(c.conclusion == "grows" for c in reports) else "bounded"
    payload = {"p": args.p, "R": radii,
               "lower_bound_on_C": [c.lower_bound_on_C for c in reports],
               "G": [c.G for c in reports], "conclusion": conclusion}
    return ("certificate.json", "nonradial-failure-certificate", payload,
            f"conclusion={conclusion}")


def cmd_pme(args, model, out: Path, h: str):
    window = tuple(_floats("--fit-window", args.fit_window, ":", 2)) if args.fit_window else None
    if not (args.t_end > 0.0 and args.outputs >= 2):  # the output times span (0, t_end]
        raise ValidationError("--t-end must be positive and --outputs at least 2")
    if args.snapshots < 0:
        raise ValidationError(f"--snapshots must be 0 or more, got {args.snapshots}")
    if args.snapshots > args.outputs + 1:  # the states: t = 0 and one per output time
        raise ValidationError(f"--snapshots must be at most --outputs + 1 = "
                              f"{args.outputs + 1}, got {args.snapshots}")
    datum = (pme.Characteristic(args.r_support, args.height) if args.initial == "characteristic"
             else pme.GaussianLike(args.scale, args.height))
    outs = np.geomspace(args.t_end * 1e-6, args.t_end, args.outputs)
    cfg = pme.PMEConfig(m=args.m, model=model, R_domain=args.rdomain,
                        initial=datum, t_end=args.t_end, n_cells=args.cells,
                        output_times=outs)
    run = pme.pme_run(cfg)
    names = ("t", "sup", "mass", "support_edge")
    report_io.write_csv(out / "timeseries.csv", h, "pme-decay-series", names,
                        [[getattr(s, f) for s in run.states] for f in names])
    later = [s for s in run.states if s.t > 0]
    report_io.write_csv(out / "sup_vs_t.gnuplot.dat", h, "pme-decay-series", None,
                        ([s.t for s in later], [s.sup for s in later]))
    # every state held, if none are asked for or a run that stopped early holds fewer
    held = len(run.states)
    idx = (np.linspace(0, held - 1, args.snapshots).astype(int)
           if 0 < args.snapshots < held else range(held))
    r_text = [report_io.fmt(r) for r in run.r_centers.tolist()]  # the same column in every file
    for j, i in enumerate(idx):
        st = run.states[i]
        report_io.write_csv(out / f"snapshot_{j:03d}.csv", h,
                            f"pme-profile-t={st.t:.6g}",
                            ("r", "u"), (r_text, st.u))

    mass0 = run.states[0].mass
    payload = {"m": args.m, "mass": mass0, "steps": run.steps,
               "stopped_early": run.stopped_early, "stop_reason": run.stop_reason}
    beta = model.profile.log_fit_beta
    try:
        if args.fit in ("power_only", "both"):
            payload["power_only"] = dataclasses.asdict(
                pme.fit_smoothing(run.states, "power_only", window=window))
        if args.fit in ("power_with_log", "both") and beta is not None:
            payload["power_with_log"] = dataclasses.asdict(
                pme.fit_smoothing(run.states, "power_with_log", m=args.m, beta=beta,
                                  mass=mass0, window=window))
    except ValidationError as exc:
        payload["fit_error"] = str(exc)
    dimension = model.profile.pme_dimension(model.N)
    if dimension is not None:
        payload["predicted_power_exponent"] = -pme.smoothing_exponent(dimension, args.m)
    return ("pme_fit.json", "pme-decay-fit", payload,
            f"pme run: steps={run.steps} stopped_early={run.stopped_early}")


_DISPATCH = {"model": cmd_model, "sweep": cmd_sweep, "poincare": cmd_poincare,
             "rayleigh": cmd_rayleigh, "certificate": cmd_certificate,
             "pme": cmd_pme}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        config = _config_path(argv)
        if config:  # the file's flags go right after the command, so the command line's win
            i = next((j for j, a in enumerate(argv) if not a.startswith("-")), len(argv)) + 1
            argv = argv[:i] + _config_flags(config) + argv[i:]
        args = build_parser().parse_args(argv)
        out = Path(args.out_dir or os.environ.get("HADAMARD_INEQ_OUT", "out"))
        h = report_io.config_hash(_resolved(args))
        model = _model_from(args)
        name, quantity, payload, summary = _DISPATCH[args.command](args, model, out, h)
        json_path = report_io.write_json(out / name, h, quantity, payload)
    except SystemExit as exc:  # from argparse: usage error (2), --help or --version (0)
        return exc.code
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json_path.read_text(), end="")
    else:
        print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
