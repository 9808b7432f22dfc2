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
whose keys name the subcommand's own flags; explicit flags win, and null
keeps a flag's default.  --help prints each default; the seed's is the
CAPSMOOTH_SEED environment variable when it is set, else 0.

Exit codes: 0 success, 1 a checked bound or inequality was violated,
2 invalid arguments, a law that cannot be sampled because its radial
mass is below the normal double range, or a numeric solve that did not
converge (an incomplete beta inverse at beta within about 1e-7 of n,
say); each prints one error line.  All randomness is drawn from
per-batch streams of the seed, so repeated runs with the same arguments
produce identical output bytes.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys
import warnings

import numpy as np

from . import bounds, checks, condnum, montecarlo, volumes
from ._args import integer
from .distributions import AdversarialLaw, Cap, normalize_profile
from .geometry import normalize, proj_distance


def _floats(text, flag):
    """The comma-separated numbers of a flag's value; an entry that is
    no number raises ValueError naming the flag and the entry."""
    values = []
    for entry in text.split(","):
        try:
            values.append(float(entry))
        except ValueError:
            raise ValueError("%s expects comma-separated numbers, got %r"
                             % (flag, entry)) from None
    return values


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
        vec = np.array(_floats(spec[len("coords:"):], "--center coords:"))
        if vec.shape[0] != n + 1:
            raise ValueError("--center has %d coordinates, expected %d"
                             % (vec.shape[0], n + 1))
        try:
            return normalize(vec)
        except ValueError as exc:
            raise ValueError("--center coords: %s" % exc) from None
    raise ValueError("--center must be pole, random, or "
                     "coords:<c0,c1,...>, got %r" % (spec,))


def _problem_size(spec, form):
    """The integer k of --problem union:k, or m of matrix:m."""
    try:
        return int(spec.split(":", 1)[1])
    except ValueError:
        raise ValueError("--problem must be %s with an integer %s, got %r"
                         % (form, form[-1], spec)) from None


def _parse_problem(spec, n):
    if spec is None:
        raise ValueError("tail and expect need --problem")
    if spec == "hyperplane":
        if n is None:
            raise ValueError("--problem hyperplane needs --n")
        return condnum.hyperplane_problem(n)
    if spec.startswith("union:"):
        if n is None:
            raise ValueError("--problem union:k needs --n")
        k = _problem_size(spec, "union:k")
        if k < 1 or k > n + 1:
            raise ValueError("union:k needs 1 <= k <= n+1 "
                             "(standard-basis normals)")
        return condnum.union_hyperplanes_problem(np.eye(n + 1)[:k])
    if spec.startswith("matrix:"):
        m = _problem_size(spec, "matrix:m")
        if n is not None and n != m * m - 1:
            raise ValueError("--n %d does not match matrix:%d, whose "
                             "dimension is m^2 - 1 = %d" % (n, m, m * m - 1))
        return condnum.matrix_problem(m)
    raise ValueError("unknown problem %r (expected hyperplane, union:k, "
                     "or matrix:m)" % (spec,))


def _build_law(center, n, sigma, beta, profile_path):
    profile = None
    if profile_path is not None:
        try:
            # an empty file gives a (0, 1) table, refused below, and a
            # warning that would print ahead of the error line
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(profile_path, delimiter=",", ndmin=2)
        except ValueError:
            table = None
        if table is None or table.shape[1] != 2:
            raise ValueError("--profile %s must hold rows r,h of two comma-"
                             "separated numbers" % profile_path)
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


def _cmd_volumes(args):
    if args.n is None:
        raise ValueError("volumes needs --n")
    n = integer(args.n, "n")
    sigmas = _floats(args.sigma, "--sigma")
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
    n = integer(args.n, "n")
    samples = integer(args.samples, "samples")
    center = _resolve_center(args.center, n, args.seed)
    law = _build_law(center, n, args.sigma, args.beta, args.profile)
    z = law.sample(montecarlo.stream_rng(args.seed, 0), size=samples)
    radii = proj_distance(z, law.cap.center)
    columns = ["x%d" % i for i in range(n + 1)] + ["radius"]
    _emit(montecarlo.csv_text(columns, ((*row, r) for row, r
                                        in zip(z, radii))), args.out)
    return 0


def _experiment_config(args, need_t_grid):
    problem = _parse_problem(args.problem, args.n)
    if args.d is not None and args.d != problem.degree:
        raise ValueError("--d %d does not match the problem degree %d"
                         % (args.d, problem.degree))
    center = _resolve_center(args.center, problem.n, args.seed, problem)
    law = _build_law(center, problem.n, args.sigma, args.beta, args.profile)
    cfg = montecarlo.ExperimentConfig(
        problem=problem, law=law, samples=args.samples, seed=args.seed,
        workers=args.workers,
        scale=None if not need_t_grid or args.scale == "auto" else args.scale)
    if not need_t_grid:
        return cfg
    return dataclasses.replace(cfg, t_grid=montecarlo.threshold_grid(
        cfg, args.t_steps, args.t_min, args.t_max))


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
    grid = bounds.default_grid(args.n, args.beta, args.sigma, args.H,
                               args.eps)
    rows = ((p.n, p.beta, p.sigma, p.H, p.eps, rho, row)
            for p, rho, row in checks.boosting_rows(grid, args.rho_steps))
    return _emit_checked("n,beta,sigma,H,eps,rho,lhs,rhs,pass", rows,
                         args.out, "boost-check: %d failures\n")


def _cmd_smoothness(args):
    points = checks.grid_points(bounds.default_grid(args.n, args.beta,
                                                    args.sigma),
                                "n", "beta", "sigma")
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


def _count(text):
    """The type of a flag that sets how many rows a sweep checks, the
    largest n it reaches, or how many workers run: an integer of at
    least 1, since a sweep of no rows reports no failure, and a run on
    no workers would fail only once it reached a Monte Carlo check."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r"
                                         % (text,)) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors lead with "error:", as every
    other invalid-argument error of capsmooth does; the usage follows,
    and the exit code is 2."""

    def error(self, message):
        self.exit(2, "error: %s\n%s" % (message, self.format_usage()))


def _build_parser():
    """capsmooth's parser, and its subcommand parsers by name.  Flags
    that several subcommands share come from parent parsers, whose
    actions are shared objects; set_defaults writes an action's default,
    so each call of main builds its own parser."""
    fmt = argparse.ArgumentDefaultsHelpFormatter
    ap = _Parser(
        prog="capsmooth", formatter_class=fmt,
        description="cap laws, conic condition numbers, and bound checks")
    sub = ap.add_subparsers(dest="command", required=True)
    parent = functools.partial(argparse.ArgumentParser, add_help=False)

    def command(name, func, help_text, *parents):
        p = sub.add_parser(name, help=help_text, parents=parents,
                           formatter_class=fmt)
        p.add_argument("--config", metavar="FILE",
                       help="JSON object of flag values; explicit flags win")
        p.set_defaults(_func=func)
        return p

    out = parent()
    out.add_argument("--out", help="output path; stdout when None")
    seed = parent()
    seed.add_argument("--seed", type=int, help="seed; CAPSMOOTH_SEED if set",
                      default=os.environ.get("CAPSMOOTH_SEED") or "0")
    law = parent()
    law.add_argument("--n", type=int, help="projective dimension")
    law.add_argument("--sigma", type=float, default=0.5, help="cap radius")
    law.add_argument("--beta", type=float, default=0.0, help="pole exponent")
    law.add_argument("--profile", metavar="FILE",
                     help="CSV of r,h rows for the radial factor")
    runs = parent()
    runs.add_argument("--workers", type=_count, default=1,
                      help="worker threads")
    runs.add_argument("--format", choices=("csv", "json"), default="csv",
                      help="report format")
    mc = parent(parents=[law, seed, runs])
    mc.add_argument("--center", default="pole",
                    help="pole, random, or coords:<c0,c1,...>")
    mc.add_argument("--problem", help="hyperplane, union:k, or matrix:m")
    mc.add_argument("--d", type=int, help="expected problem degree (checked)")
    mc.add_argument("--samples", type=int, default=100000, help="draws")

    p = command("volumes", _cmd_volumes, "cap integrals and measures", out)
    p.add_argument("--n", type=int, help="projective dimension")
    p.add_argument("--sigma", default="0.1,0.25,0.5,0.75,1.0", help="radii")

    p = command("sample", _cmd_sample, "draw points from a cap law",
                law, seed, out)
    p.add_argument("--center", default="random",
                   help="random or coords:<c0,c1,...>")
    p.add_argument("--samples", type=int, default=100, help="draws")

    p = command("tail", _cmd_tail, "tail probabilities against the bound",
                mc, out)
    p.add_argument("--scale", choices=("auto", "linear", "log"),
                   default="auto", help="threshold scale")
    p.add_argument("--t-min", type=float, help="first threshold; auto if None")
    p.add_argument("--t-max", type=float, help="last threshold; auto if None")
    p.add_argument("--t-steps", type=int, default=25, help="thresholds")

    command("expect", _cmd_expect, "mean ln C against the bound", mc, out)

    p = command("boost-check", _cmd_boost_check,
                "sweep the boosting inequality over a grid", out)
    p.add_argument("--n", type=int, help="pin the dimension axis")
    p.add_argument("--beta", type=float, help="pin the pole exponent axis")
    p.add_argument("--sigma", type=float, help="pin the cap radius axis")
    p.add_argument("--H", type=float, help="pin the profile sup axis")
    p.add_argument("--eps", type=float, help="pin the epsilon axis")
    p.add_argument("--rho-steps", type=_count, default=25,
                   help="radii per point")

    p = command("smoothness", _cmd_smoothness,
                "mass ratio against the limit exponent", out)
    p.add_argument("--n", type=int, help="pin the dimension axis")
    p.add_argument("--beta", type=float, help="pin the pole exponent axis")
    p.add_argument("--sigma", type=float, default=0.5, help="cap radius")
    p.add_argument("--rho", type=float, default=1e-6, help="radius")
    p.add_argument("--tol", type=float, default=0.02, help="pass tolerance")

    p = command("small-calc", _cmd_small_calc,
                "the elementary n-inequality of the expectation proof", out)
    p.add_argument("--n-max", type=_count, default=10 ** 6, help="largest n")
    p.add_argument("--points", type=_count, default=200, help="grid size")

    p = command("verify", _cmd_verify, "run the full checker battery",
                seed, runs, out)
    p.add_argument("--quick", action="store_true", help="smaller battery")
    return ap, sub.choices


_KINDS = {bool: "a JSON boolean", int: "an integer", float: "a number",
          _count: "an integer of at least 1"}


def _config_value(key, action, value):
    """A config file's value for action's flag, checked as the flag's
    type and choices check it; a switch takes only a JSON boolean, a
    number flag no boolean, and an integer flag no fraction."""
    kind = bool if action.nargs == 0 else action.type or str
    try:
        if kind is not str and (isinstance(value, bool) != (kind is bool) or
                                kind in (int, _count)
                                and isinstance(value, float)
                                and value % 1):
            raise ValueError
        value = kind(value)
    except (ValueError, TypeError, argparse.ArgumentTypeError):
        raise ValueError("config key %r must be %s"
                         % (key, _KINDS[kind])) from None
    if action.choices is not None and value not in action.choices:
        raise ValueError("config key %r must be one of %s, got %r"
                         % (key, "/".join(action.choices), value))
    return value


def _parse_args(argv):
    """The namespace of argv.  A --config file's values become the
    subcommand's defaults, so explicit flags win; each key must name one
    of its flags, and null keeps the flag's default."""
    ap, commands = _build_parser()
    args = ap.parse_args(argv)
    if args.config is None:
        return args
    with open(args.config) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    parser = commands[args.command]
    actions = {a.dest: a for a in parser._actions
               if a.dest not in ("help", "config")}
    for key, value in data.items():
        action = actions.get(str(key).replace("-", "_"))
        if action is None:
            raise ValueError("unknown config key %r" % (key,))
        if value is not None:
            parser.set_defaults(**{action.dest:
                                   _config_value(key, action, value)})
    return ap.parse_args(argv)


def main(argv=None):
    try:
        args = _parse_args(argv)
        return args._func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
