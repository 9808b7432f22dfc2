"""Command-line interface.

Subcommands:

  volumes     cap integrals, sandwich bounds, and cap measures on a grid
  sample      draw points from a cap law and print them as CSV
  tail        Monte Carlo tail experiment against the theorem bound
  expect      Monte Carlo expectation experiment against the theorem bound
  boost-check sweep the boosting inequality over a parameter grid
  smoothness  mass-ratio table against the limit exponent alpha
  small-calc  the elementary n-inequality used by the expectation proof
  verify      deterministic inequality battery plus seeded MC spot checks

Every flag can also be supplied through --config FILE, a JSON object
whose keys mirror the flag names; explicit command-line flags win.  The
default seed comes from the CAPSMOOTH_SEED environment variable when it
is set.

Exit codes: 0 success, 1 a checked bound or inequality was violated,
2 invalid arguments.  All randomness is counter-based from the seed, so
repeated runs with the same arguments produce identical output bytes.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import bounds, checks, condnum, montecarlo, volumes
from .distributions import AdversarialLaw, Cap, normalize_profile
from .geometry import normalize, proj_distance


def _resolve_center(spec, n, seed, problem=None):
    if spec == "pole":
        if problem is None:
            raise ValueError("--center pole needs a problem; use random "
                             "or coords:<c0,c1,...>")
        return np.array(problem.ill_posed, dtype=float)
    if spec == "random":
        rng = montecarlo.stream_rng(seed, montecarlo.CENTER_STREAM)
        return normalize(rng.standard_normal(n + 1))
    if spec.startswith("coords:"):
        try:
            vec = np.array([float(v)
                            for v in spec[len("coords:"):].split(",")])
        except ValueError:
            raise ValueError("coords: expects comma-separated numbers, "
                             "got %r" % (spec,)) from None
        if vec.shape[0] != n + 1:
            raise ValueError("--center has %d coordinates, expected %d"
                             % (vec.shape[0], n + 1))
        return normalize(vec)
    raise ValueError("--center must be pole, random, or "
                     "coords:<c0,c1,...>, got %r" % (spec,))


def _parse_problem(spec, n):
    if spec == "hyperplane":
        if n is None:
            raise ValueError("--problem hyperplane needs --n")
        return condnum.hyperplane_problem(n)
    if spec.startswith("union:"):
        if n is None:
            raise ValueError("--problem union:k needs --n")
        k = int(spec.split(":", 1)[1])
        if k < 1 or k > n + 1:
            raise ValueError("union:k needs 1 <= k <= n+1 "
                             "(standard-basis normals)")
        return condnum.union_hyperplanes_problem(np.eye(n + 1)[:k])
    if spec.startswith("matrix:"):
        m = int(spec.split(":", 1)[1])
        if n is not None and n != m * m - 1:
            raise ValueError("--n %d does not match matrix:%d, whose "
                             "dimension is m^2 - 1 = %d" % (n, m, m * m - 1))
        return condnum.matrix_problem(m)
    raise ValueError("unknown problem %r (expected hyperplane, union:k, "
                     "or matrix:m)" % (spec,))


def _build_law(center, n, sigma, beta, profile_path):
    profile = None
    if profile_path is not None:
        table = np.loadtxt(profile_path, delimiter=",", ndmin=2)
        profile = normalize_profile(table, n, beta, sigma)
    return AdversarialLaw(Cap(center, sigma), beta, profile)


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _json_text(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _report_text(report, fmt):
    if fmt == "json":
        return _json_text(report.to_json_dict())
    return report.to_csv()


def _check_choice(name, value, choices):
    if value not in choices:
        raise ValueError("--%s must be one of %s, got %r"
                         % (name, "/".join(choices), value))


def _cmd_volumes(args):
    if args.n is None:
        raise ValueError("volumes needs --n")
    n = args.n
    sigmas = [float(s) for s in str(args.sigma).split(",")]
    o_n = volumes.sphere_volume(n)
    half = 0.5 * o_n
    rows = []
    for s in sigmas:
        val = volumes.cap_integral(n, s)
        lo, hi = volumes.cap_integral_bounds(n, s)
        meas = volumes.cap_measure(n, s)
        rows.append((n, s, o_n, val, lo, hi, meas, meas / half))
    _emit(montecarlo.csv_text(
        ("n", "sigma", "sphere_volume", "cap_integral", "lower", "upper",
         "cap_measure", "space_fraction"), rows), args.out)
    return 0


def _cmd_sample(args):
    if args.n is None:
        raise ValueError("sample needs --n")
    center = _resolve_center(args.center, args.n, args.seed)
    law = _build_law(center, args.n, args.sigma, args.beta, args.profile)
    z = law.sample(montecarlo.stream_rng(args.seed, 0), size=args.samples)
    radii = np.atleast_1d(proj_distance(z, law.cap.center))
    columns = ["x%d" % i for i in range(args.n + 1)] + ["radius"]
    _emit(montecarlo.csv_text(columns, ((*row, r) for row, r
                                        in zip(z, radii))), args.out)
    return 0


def _with_t_grid(cfg, args):
    """cfg with the threshold grid of a tail run; refuses a grid on which
    no row would be checked against a theorem."""
    law = cfg.law
    t_min, bound = bounds.tail_theorem(cfg.problem.n, cfg.problem.degree,
                                       law.cap.sigma, law.beta, law.H,
                                       cfg.scale)
    if bound is None:
        raise ValueError("no tail theorem covers beta > 0 on the linear "
                         "scale; use --scale log")
    lo = t_min if args.t_min is None else args.t_min
    if cfg.scale == "linear":
        hi = args.t_max if args.t_max is not None else max(1e4, 100.0 * lo)
        if lo <= 0 or hi <= lo:
            raise ValueError("need 0 < t-min < t-max")
        grid = np.geomspace(lo, hi, args.t_steps)
    else:
        hi = args.t_max if args.t_max is not None else lo + 8.0
        if hi <= lo:
            raise ValueError("need t-min < t-max")
        grid = np.linspace(lo, hi, args.t_steps)
    cfg = dataclasses.replace(cfg, t_grid=grid)
    if cfg.t_grid[-1] < t_min:
        raise ValueError("every threshold lies below t = %.17g, where the "
                         "tail theorem's range starts" % t_min)
    return cfg


def _experiment_config(args, need_t_grid):
    _check_choice("format", args.format, ("csv", "json"))
    problem = _parse_problem(args.problem, args.n)
    if args.d is not None and args.d != problem.degree:
        raise ValueError("--d %d does not match the problem degree %d"
                         % (args.d, problem.degree))
    center = _resolve_center(args.center, problem.n, args.seed, problem)
    law = _build_law(center, problem.n, args.sigma, args.beta, args.profile)
    scale = None
    if need_t_grid:
        _check_choice("scale", args.scale, ("auto", "linear", "log"))
        scale = None if args.scale == "auto" else args.scale
    cfg = montecarlo.ExperimentConfig(
        problem=problem, law=law, samples=args.samples, seed=args.seed,
        workers=args.workers, scale=scale)
    return _with_t_grid(cfg, args) if need_t_grid else cfg


def _cmd_tail(args):
    cfg = _experiment_config(args, need_t_grid=True)
    report = montecarlo.estimate_tail(cfg)
    _emit(_report_text(report, args.format), args.out)
    return 1 if report.has_violation else 0


def _cmd_expect(args):
    cfg = _experiment_config(args, need_t_grid=False)
    report = montecarlo.estimate_expectation(cfg)
    _emit(_report_text(report, args.format), args.out)
    return 1 if report.has_violation else 0


def _emit_checked(columns, rows, out_path, summary):
    """Write rows ending in a CheckRow as CSV, the CheckRow as its lhs,
    rhs and pass columns; the exit code is 1 when any row fails."""
    rows = [(*values, row.lhs, row.rhs, row.passed) for *values, row in rows]
    failures = sum(not values[-1] for values in rows)
    _emit(montecarlo.csv_text(columns.split(","), rows), out_path)
    sys.stderr.write(summary % failures)
    return 1 if failures else 0


def _cmd_boost_check(args):
    grid = checks.boost_grid(args.n, args.beta, args.sigma, args.H, args.eps)
    rows = ((p.n, p.beta, p.sigma, p.H, p.eps, rho, row)
            for p, rho, row in checks.boosting_rows(grid, args.rho_steps))
    return _emit_checked("n,beta,sigma,H,eps,rho,lhs,rhs,pass", rows,
                         args.out, "boost-check: %d failures\n")


def _cmd_smoothness(args):
    points = checks.grid_axes(args.n, args.beta, args.sigma)
    rows = ((n, beta, sigma, args.rho, row) for n, beta, sigma, row
            in checks.smoothness_rows(points, args.rho, args.tol))
    return _emit_checked("n,beta,sigma,rho,ratio,alpha,pass", rows,
                         args.out, "smoothness: %d rows outside tolerance\n")


def _cmd_small_calc(args):
    ns = checks.small_calc_grid(args.n_max, args.points)
    return _emit_checked("n,lhs,rhs,pass",
                         zip(ns, map(bounds.small_calc_check, ns)),
                         args.out, "small-calc: %d failures\n")


def _cmd_verify(args):
    _check_choice("format", args.format, ("csv", "json"))
    rows = [(check, params, row, check not in checks.SOFT)
            for entry in checks.BATTERY
            for check, params, row in entry(args.quick, args.seed,
                                            args.workers)]
    hard_fail = [(check, params, row) for check, params, row, hard in rows
                 if hard and not row.passed]

    if args.format == "json":
        text = _json_text({
            "schema": "capsmooth-verify-v1",
            "quick": bool(args.quick),
            "checks": [{
                "check": check, "params": params, "lhs": row.lhs,
                "rhs": row.rhs, "passed": row.passed, "hard": hard,
            } for check, params, row, hard in rows],
            "hard_failures": len(hard_fail),
        })
    else:
        text = montecarlo.csv_text(
            ("check", "params", "lhs", "rhs", "passed", "hard"),
            ((check, '"%s"' % params, row.lhs, row.rhs, row.passed, hard)
             for check, params, row, hard in rows))
    _emit(text, args.out)

    sys.stderr.write("%d checks, %d hard failures\n"
                     % (len(rows), len(hard_fail)))
    for check, params, row in hard_fail:
        sys.stderr.write("FAIL %s [%s] lhs=%.6g rhs=%.6g\n"
                         % (check, params, row.lhs, row.rhs))
    return 1 if hard_fail else 0


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="capsmooth",
        description="cap laws, conic condition numbers, and bound checks")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_command(name, func, help_text, flags, defaults):
        p = sub.add_parser(name, help=help_text)
        types = {}
        for flag, kw in flags:
            dest = flag.lstrip("-").replace("-", "_")
            if kw.get("action") == "store_true":
                types[dest] = bool
                p.add_argument(flag, action="store_true",
                               default=argparse.SUPPRESS,
                               help=kw.get("help"))
            else:
                types[dest] = kw.get("type", str)
                kw = dict(kw, default=argparse.SUPPRESS)
                p.add_argument(flag, **kw)
        p.add_argument("--config", default=argparse.SUPPRESS,
                       metavar="FILE",
                       help="JSON object of flag values; explicit flags win")
        p.set_defaults(_func=func, _defaults=defaults, _types=types)

    law_flags = [
        ("--n", dict(type=int, help="projective dimension")),
        ("--sigma", dict(type=float, help="cap radius in (0, 1]")),
        ("--beta", dict(type=float, help="pole exponent in [0, n)")),
        ("--profile", dict(metavar="FILE",
                           help="CSV of r,h rows for the radial factor")),
        ("--center", dict(help="pole, random, or coords:<c0,c1,...>")),
        ("--seed", dict(type=int, help="64-bit experiment seed")),
        ("--out", dict(help="output path (default stdout)")),
    ]
    law_defaults = {"n": None, "sigma": 0.5, "beta": 0.0, "profile": None,
                    "seed": None, "out": None}

    add_command(
        "volumes", _cmd_volumes, "cap integrals and measures",
        [("--n", dict(type=int, help="projective dimension")),
         ("--sigma", dict(help="comma-separated cap radii")),
         ("--out", dict(help="output path (default stdout)"))],
        {"n": None, "sigma": "0.1,0.25,0.5,0.75,1.0", "out": None,
         "seed": None})

    add_command(
        "sample", _cmd_sample, "draw points from a cap law",
        law_flags + [("--samples", dict(type=int))],
        dict(law_defaults, center="random", samples=100))

    mc_flags = law_flags + [
        ("--problem", dict(help="hyperplane, union:k, or matrix:m")),
        ("--d", dict(type=int, help="expected problem degree (checked)")),
        ("--samples", dict(type=int)),
        ("--workers", dict(type=int)),
        ("--format", dict(help="csv or json")),
    ]
    mc_defaults = dict(law_defaults, center="pole", problem=None, d=None,
                       samples=100000, workers=1, format="csv")

    add_command(
        "tail", _cmd_tail, "tail probabilities against the bound",
        mc_flags + [
            ("--scale", dict(help="auto, linear, or log")),
            ("--t-min", dict(type=float)),
            ("--t-max", dict(type=float)),
            ("--t-steps", dict(type=int)),
        ],
        dict(mc_defaults, scale="auto", t_min=None, t_max=None, t_steps=25))

    add_command(
        "expect", _cmd_expect, "mean ln C against the bound",
        mc_flags, dict(mc_defaults))

    add_command(
        "boost-check", _cmd_boost_check,
        "sweep the boosting inequality over a grid",
        [("--n", dict(type=int, help="pin the dimension axis")),
         ("--beta", dict(type=float, help="pin the pole exponent axis")),
         ("--sigma", dict(type=float, help="pin the cap radius axis")),
         ("--H", dict(type=float, help="pin the profile sup axis")),
         ("--eps", dict(type=float, help="pin the epsilon axis")),
         ("--rho-steps", dict(type=int, help="radii per combination")),
         ("--out", dict(help="output path (default stdout)"))],
        {"n": None, "beta": None, "sigma": None, "H": None, "eps": None,
         "rho_steps": 25, "out": None, "seed": None})

    add_command(
        "smoothness", _cmd_smoothness,
        "mass ratio against the limit exponent",
        [("--n", dict(type=int, help="pin the dimension axis")),
         ("--beta", dict(type=float, help="pin the pole exponent axis")),
         ("--sigma", dict(type=float, help="pin the cap radius axis")),
         ("--rho", dict(type=float, help="evaluation radius")),
         ("--tol", dict(type=float, help="pass tolerance on |ratio-alpha|")),
         ("--out", dict(help="output path (default stdout)"))],
        {"n": None, "beta": None, "sigma": 0.5, "rho": 1e-6, "tol": 0.02,
         "out": None, "seed": None})

    add_command(
        "small-calc", _cmd_small_calc,
        "the elementary n-inequality of the expectation proof",
        [("--n-max", dict(type=int, help="top of the log grid")),
         ("--points", dict(type=int, help="grid size")),
         ("--out", dict(help="output path (default stdout)"))],
        {"n_max": 10 ** 6, "points": 200, "out": None, "seed": None})

    add_command(
        "verify", _cmd_verify, "run the full checker battery",
        [("--quick", dict(action="store_true",
                          help="smaller grids and sample counts")),
         ("--seed", dict(type=int)),
         ("--workers", dict(type=int)),
         ("--format", dict(help="csv or json")),
         ("--out", dict(help="output path (default stdout)"))],
        {"quick": False, "seed": None, "workers": 1, "format": "csv",
         "out": None})

    return ap


def _coerce_config_value(dest, value, types):
    t = types.get(dest, str)
    if value is None:
        return None
    if t is bool:
        if not isinstance(value, bool):
            raise ValueError("config key %r must be a JSON boolean" % dest)
        return value
    if t is int:
        if isinstance(value, bool) or (isinstance(value, float)
                                       and int(value) != value):
            raise ValueError("config key %r must be an integer" % dest)
        return int(value)
    if t is float:
        if isinstance(value, bool):
            raise ValueError("config key %r must be a number" % dest)
        return float(value)
    return str(value)


def _merge_args(args):
    provided = dict(vars(args))
    func = provided.pop("_func")
    defaults = dict(provided.pop("_defaults"))
    types = provided.pop("_types")
    provided.pop("command")

    config_path = provided.pop("config", None)
    if config_path is not None:
        with open(config_path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in data.items():
            dest = str(key).replace("-", "_")
            if dest not in defaults:
                raise ValueError("unknown config key %r" % (key,))
            defaults[dest] = _coerce_config_value(dest, value, types)
    defaults.update(provided)

    if defaults.get("seed") is None:
        env = os.environ.get("CAPSMOOTH_SEED")
        defaults["seed"] = int(env) if env else 0
    return func, argparse.Namespace(**defaults)


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        func, ns = _merge_args(args)
        return func(ns)
    except (ValueError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
