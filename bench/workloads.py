"""The benchmark workloads: inputs, body, output gates and gate controls.

Each workload runs in one cold child process (see child.py).  ``setup``
imports capsmooth and builds every input from the benchmark seed;
``body`` runs the timed calls into capsmooth's public functions and
returns the outputs as plain data; ``gates`` maps each gate name to True
when the outputs pass it.  ``corruptions`` pairs each gate with a
function that damages a copy of the outputs so that gate must fail:
``run_controls`` applies them and reports which gates fired.

Gates in STATISTICAL_GATES test sampled values at a fixed significance
level, so a correct program fails them at that rate: verify's eight
ks_radial rows are 1%-level tests that share one draw per seed.  Their
rejections are reported by name but are not failed operations; the gate
ks_rejections_within_chance still fails a rejection too large to be
chance.  Every other gate is a failed operation when it does not hold.
"""

import contextlib
import copy
import io
import json
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

SIGMA = 0.5
MC_POLE_SAMPLES = 10 ** 6
MC_MATRIX_SAMPLES = 250_000
T_POINTS = 25
BOOST_RHO_STEPS = 200
BOOST_ROWS = 648 * BOOST_RHO_STEPS
VERIFY_CHECKS = 464
# criterion 9: the lower delta_eps sandwich bound fails at sigma = 1
CRITERION9_FAILURES = 33
# criterion 12 layout: 100 random shell unions per (n, beta) at sigma 0.8
BALL_SIGMA = 0.8
BALL_PAIRS = ((3, 0.0), (3, 1.5), (4, 2.0), (10, 5.0))
BALL_UNIONS_PER_PAIR = 100

# a ks_radial statistic above this multiple of the 1% critical value has
# asymptotic probability about 1e-5 under the sampled law
KS_CHANCE_FACTOR = 1.5

STATISTICAL_GATES = frozenset({"ks_rows_pass"})


@dataclass
class Result:
    """What a body hands back: outputs for the gates, and the work done
    (``work`` units in ``work_s`` seconds of process CPU time) for the
    throughput metric."""
    outputs: dict
    work: int
    work_s: float
    info: dict


@dataclass
class Workload:
    """rate names the work_per_s metric: samples_per_s or checks_per_s."""
    rate: str
    setup: Callable
    body: Callable
    gates: Callable
    corruptions: list


def _timed(fn, *args):
    """fn(*args) with its wall time and its process CPU time."""
    wall, cpu = time.perf_counter(), time.process_time()
    out = fn(*args)
    return out, time.perf_counter() - wall, time.process_time() - cpu


def _boosted_t_grid(problem, law):
    """T_POINTS log-scale thresholds from the boosted threshold t_eps."""
    from capsmooth import bounds
    n, d, sigma = problem.n, problem.degree, law.cap.sigma
    alpha = 1.0 - law.beta / n
    delta = bounds.delta_eps(n, law.beta, sigma, law.H, 0.5 * alpha)
    lo = bounds.t_eps(n, d, sigma, delta)
    return list(np.linspace(lo, lo + 8.0, T_POINTS))


def _cli(argv, out_path):
    """Run capsmooth's CLI with its report going to out_path; returns
    (exit code, report text)."""
    from capsmooth import cli
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--out", str(out_path)])
    text = out_path.read_text()
    out_path.unlink()
    return code, text


# -- CSV helpers shared by gates and corruptions ---------------------------

def _csv_rows(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _set_cell(text, row, column, value):
    lines = text.splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[col] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _drop_last_row(text):
    return "\n".join(text.splitlines()[:-1]) + "\n"


def _corrupt(key, fn):
    """Corruption that replaces outputs[key] with fn(outputs[key])."""
    def apply(outputs):
        damaged = dict(outputs)
        damaged[key] = fn(copy.deepcopy(outputs[key]))
        return damaged
    return apply


# -- mc-pole-hyperplane ------------------------------------------------------

def mc_pole_setup(seed, out_dir):
    from capsmooth import condnum, montecarlo
    from capsmooth.distributions import AdversarialLaw, Cap
    problem = condnum.hyperplane_problem(3)
    law = AdversarialLaw(Cap(problem.ill_posed, SIGMA), 1.5)
    t_grid = _boosted_t_grid(problem, law)
    return [montecarlo.ExperimentConfig(problem, law, MC_POLE_SAMPLES, seed,
                                        t_grid=t_grid, workers=w,
                                        scale="log")
            for w in (1, 2)]


def mc_pole_body(configs):
    from capsmooth import montecarlo
    r1, w1_s, w1_cpu = _timed(montecarlo.estimate_tail, configs[0])
    r2, w2_s, _ = _timed(montecarlo.estimate_tail, configs[1])
    return Result(outputs={"csv_w1": r1.to_csv(), "csv_w2": r2.to_csv()},
                  work=MC_POLE_SAMPLES, work_s=w1_cpu,
                  info={"w1_s": w1_s, "w2_s": w2_s,
                        "parallel_efficiency": w1_s / (2.0 * w2_s)})


def mc_pole_gates(o):
    w1, w2 = _csv_rows(o["csv_w1"]), _csv_rows(o["csv_w2"])
    rows = w1 + w2
    return {
        "w1_w2_csv_identical": o["csv_w1"] == o["csv_w2"],
        "rows_25": len(w1) == len(w2) == T_POINTS,
        "no_row_flagged": all(r["violation"] == "false" for r in rows),
    }


def _bump_count(text):
    count = int(_csv_rows(text)[0]["count"])
    return _set_cell(text, 0, "count", str(count + 1))


def _flag_row(text):
    return _set_cell(text, 0, "violation", "true")


MC_POLE = Workload(
    rate="samples_per_s", setup=mc_pole_setup, body=mc_pole_body,
    gates=mc_pole_gates, corruptions=[
    ("w1_w2_csv_identical", _corrupt("csv_w2", _bump_count)),
    ("rows_25", _corrupt("csv_w1", _drop_last_row)),
    ("no_row_flagged", _corrupt("csv_w2", _flag_row)),
])


# -- mc-matrix-tabulated -----------------------------------------------------

def mc_matrix_setup(seed, out_dir):
    from capsmooth import condnum, montecarlo
    from capsmooth.distributions import AdversarialLaw, Cap, normalize_profile
    problem = condnum.matrix_problem(3)
    beta = 4.0
    profile = normalize_profile(lambda r: 2.0 - r / SIGMA, problem.n, beta,
                                SIGMA, grid_points=1025)
    law = AdversarialLaw(Cap(problem.ill_posed, SIGMA), beta, profile)
    tail = montecarlo.ExperimentConfig(problem, law, MC_MATRIX_SAMPLES, seed,
                                       t_grid=_boosted_t_grid(problem, law),
                                       scale="log")
    expect = montecarlo.ExperimentConfig(problem, law, MC_MATRIX_SAMPLES,
                                         seed)
    return tail, expect


def mc_matrix_body(configs):
    from capsmooth import montecarlo
    tail, tail_s, tail_cpu = _timed(montecarlo.estimate_tail, configs[0])
    expect, expect_s, expect_cpu = _timed(montecarlo.estimate_expectation,
                                          configs[1])
    return Result(outputs={"tail_csv": tail.to_csv(),
                           "expect_csv": expect.to_csv()},
                  work=2 * MC_MATRIX_SAMPLES, work_s=tail_cpu + expect_cpu,
                  info={"tail_s": tail_s, "expect_s": expect_s})


def mc_matrix_gates(o):
    tail = _csv_rows(o["tail_csv"])
    (expect,) = _csv_rows(o["expect_csv"])
    return {
        "rows_25": len(tail) == T_POINTS,
        "tail_no_violation": all(r["violation"] == "false" for r in tail),
        "margin_positive": float(expect["margin"]) > 0.0,
        "n_effective_equals_samples":
            int(expect["n_effective"]) == int(expect["n_samples"])
            == MC_MATRIX_SAMPLES,
    }


MC_MATRIX = Workload(
    rate="samples_per_s", setup=mc_matrix_setup, body=mc_matrix_body,
    gates=mc_matrix_gates, corruptions=[
    ("rows_25", _corrupt("tail_csv", _drop_last_row)),
    ("tail_no_violation", _corrupt("tail_csv", _flag_row)),
    ("margin_positive",
     _corrupt("expect_csv", lambda t: _set_cell(t, 0, "margin", "-1e-9"))),
    ("n_effective_equals_samples",
     _corrupt("expect_csv",
              lambda t: _set_cell(t, 0, "n_effective",
                                  str(MC_MATRIX_SAMPLES - 1)))),
])


# -- verify-quick ------------------------------------------------------------

def verify_setup(seed, out_dir):
    import capsmooth.cli  # noqa: F401  (the import is part of set-up)
    argv = ["verify", "--quick", "--seed", str(seed), "--format", "json"]
    return argv, out_dir / "verify.json"


def verify_body(state):
    argv, out_path = state
    (code, text), _, cpu = _timed(_cli, argv, out_path)
    report = json.loads(text)
    return Result(outputs={"exit_code": code, "report": report},
                  work=len(report["checks"]), work_s=cpu, info={})


def _params(check):
    return dict(tok.split("=", 1) for tok in check["params"].split()
                if "=" in tok)


def _is_criterion9(check):
    """A lower delta_eps sandwich row at sigma = 1, where the paper's
    constant fails for 33 of the default grid's combinations."""
    return (check["check"] == "delta_eps_sandwich_lower"
            and float(_params(check).get("sigma", "nan")) == 1.0)


def _is_ks(check):
    return check["check"] == "ks_radial"


def _is_mc(check):
    return check["check"].startswith(("ks_", "tail_", "expect_"))


def verify_gates(o):
    checks = o["report"]["checks"]
    failed = [c for c in checks if c["hard"] and not c["passed"]]
    crit9 = [c for c in failed if _is_criterion9(c)]
    other = [c for c in failed if not _is_criterion9(c)]
    ks = [c for c in other if _is_ks(c)]
    return {
        "exit_code_1": o["exit_code"] == 1,
        "checks_464": len(checks) == VERIFY_CHECKS,
        "criterion9_failures_33": len(crit9) == CRITERION9_FAILURES,
        "hard_failures_counted": o["report"]["hard_failures"] == len(failed),
        "no_other_deterministic_hard_failure":
            not [c for c in other if not _is_mc(c)],
        "no_tail_or_expect_row_rejected":
            not [c for c in other if _is_mc(c) and not _is_ks(c)],
        "ks_rejections_within_chance":
            all(c["lhs"] <= KS_CHANCE_FACTOR * c["rhs"] for c in ks),
        "ks_rows_pass": not ks,
    }


def _fail_first(predicate):
    """Corruption: mark the first check matching predicate as failed."""
    def fn(report):
        check = next(c for c in report["checks"] if predicate(c))
        check["passed"] = False
        report["hard_failures"] += 1
        return report
    return fn


def _pass_first_criterion9(report):
    next(c for c in report["checks"]
         if _is_criterion9(c) and not c["passed"])["passed"] = True
    return report


def _drop_last_check(report):
    report["checks"].pop()
    return report


def _bump_hard_failures(report):
    report["hard_failures"] += 1
    return report


def _reject_first_ks_grossly(report):
    check = next(c for c in report["checks"] if _is_ks(c))
    check["lhs"] = 2.0 * KS_CHANCE_FACTOR * check["rhs"]
    if check["passed"]:
        check["passed"] = False
        report["hard_failures"] += 1
    return report


VERIFY = Workload(
    rate="checks_per_s", setup=verify_setup, body=verify_body,
    gates=verify_gates, corruptions=[
    ("exit_code_1", _corrupt("exit_code", lambda code: 0)),
    ("checks_464", _corrupt("report", _drop_last_check)),
    ("criterion9_failures_33", _corrupt("report", _pass_first_criterion9)),
    ("hard_failures_counted", _corrupt("report", _bump_hard_failures)),
    ("no_other_deterministic_hard_failure",
     _corrupt("report",
              _fail_first(lambda c: c["check"] == "half_sphere_identity"))),
    ("no_tail_or_expect_row_rejected",
     _corrupt("report",
              _fail_first(lambda c: c["check"] == "tail_boosted_pole"))),
    ("ks_rejections_within_chance",
     _corrupt("report", _reject_first_ks_grossly)),
    ("ks_rows_pass", _corrupt("report", _reject_first_ks_grossly)),
])


# -- sweep-boosting ----------------------------------------------------------

def ball_unions(seed):
    """BALL_UNIONS_PER_PAIR shell unions per (n, beta): 1 to 3 disjoint
    shells with sorted uniform endpoints in [0, BALL_SIGMA]."""
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed, 12], dtype=np.uint64)))
    cases = []
    for n, beta in BALL_PAIRS:
        for _ in range(BALL_UNIONS_PER_PAIR):
            k = int(rng.integers(1, 4))
            while True:
                pts = np.sort(rng.uniform(0.0, BALL_SIGMA, size=2 * k))
                if np.all(np.diff(pts) > 1e-6):
                    break
            cases.append((n, beta, [(float(pts[2 * i]), float(pts[2 * i + 1]))
                                    for i in range(k)]))
    return cases


def sweep_setup(seed, out_dir):
    import capsmooth.cli  # noqa: F401  (the import is part of set-up)
    from capsmooth.distributions import AdversarialLaw, Cap
    laws = {}
    for n, beta in BALL_PAIRS:
        center = np.zeros(n + 1)
        center[0] = 1.0
        laws[n, beta] = AdversarialLaw(Cap(center, BALL_SIGMA), beta)
    balls = [(laws[n, beta], shells) for n, beta, shells in ball_unions(seed)]
    return out_dir / "sweep.csv", balls


def sweep_body(state):
    from capsmooth import bounds
    out_path, balls = state
    cpu = time.process_time()
    boost_code, boost_csv = _cli(
        ["boost-check", "--rho-steps", str(BOOST_RHO_STEPS)], out_path)
    smooth_code, smooth_csv = _cli(["smoothness"], out_path)
    ball = [bounds.ball_maximizer_check(law, shells, slack=1e-12)
            for law, shells in balls]
    cpu = time.process_time() - cpu
    checks = (boost_csv.count("\n") - 1) + (smooth_csv.count("\n") - 1) \
        + len(ball)
    return Result(outputs={"boost_exit": boost_code, "boost_csv": boost_csv,
                           "smooth_exit": smooth_code,
                           "smooth_csv": smooth_csv, "ball": ball},
                  work=checks, work_s=cpu, info={})


def _all_true_rows(text, count=None):
    rows = text.splitlines()[1:]
    return ((count is None or len(rows) == count)
            and all(r.endswith(",true") for r in rows))


def sweep_gates(o):
    return {
        "boost_check_exit_0": o["boost_exit"] == 0,
        "boost_check_129600_true_rows": _all_true_rows(o["boost_csv"],
                                                       BOOST_ROWS),
        "smoothness_exit_0": o["smooth_exit"] == 0,
        "smoothness_rows_true": _all_true_rows(o["smooth_csv"]),
        "ball_checks_400_true": (len(o["ball"]) == len(BALL_PAIRS)
                                 * BALL_UNIONS_PER_PAIR
                                 and all(o["ball"])),
    }


def _flip_last_pass(text):
    head, _, last = text.rstrip("\n").rpartition("\n")
    return head + "\n" + last[:-len("true")] + "false\n"


def _flip_first(flags):
    flags[0] = False
    return flags


SWEEP = Workload(
    rate="checks_per_s", setup=sweep_setup, body=sweep_body,
    gates=sweep_gates, corruptions=[
    ("boost_check_exit_0", _corrupt("boost_exit", lambda code: 1)),
    ("boost_check_129600_true_rows", _corrupt("boost_csv", _flip_last_pass)),
    ("boost_check_129600_true_rows", _corrupt("boost_csv", _drop_last_row)),
    ("smoothness_exit_0", _corrupt("smooth_exit", lambda code: 1)),
    ("smoothness_rows_true", _corrupt("smooth_csv", _flip_last_pass)),
    ("ball_checks_400_true", _corrupt("ball", _flip_first)),
])


WORKLOADS = {
    "mc-pole-hyperplane": MC_POLE,
    "mc-matrix-tabulated": MC_MATRIX,
    "verify-quick": VERIFY,
    "sweep-boosting": SWEEP,
}


def run_controls(workload, outputs):
    """Feed each gate its corrupted outputs; returns, per control, whether
    the named gate fired (returned False)."""
    fired = {}
    for i, (gate, corrupt) in enumerate(workload.corruptions):
        fired["%d:%s" % (i, gate)] = not workload.gates(corrupt(outputs))[gate]
    return fired
