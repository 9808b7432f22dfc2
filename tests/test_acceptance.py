"""Acceptance battery.

One test per numbered criterion; the pytest -v line of each test is that
criterion's pass or fail line.  Each test also prints a one-line summary
with the measured quantities, which pytest shows for failing criteria.

Criterion 9 checks where the closed-form delta_eps sandwich is valid.
The upper bound must hold at every default grid point.  The lower bound
is derived through the I_m estimate I_n(sigma) <= sqrt(pi n/2) sigma^n/n,
so it must hold wherever that estimate holds, and every failure must lie
where it does not (sigma = 1).  The test pins that finding: it asserts
the failures exist, checks every verdict against a 50-digit oracle, and
runs a negative control, so the defect stays visible while the criterion
can still catch a new fault.
"""

import dataclasses
import math
import time

import mpmath
import numpy as np
import pytest

from capsmooth import bounds, checks, volumes
from capsmooth.cli import main as cli_main
from capsmooth.condnum import hyperplane_problem, matrix_problem
from capsmooth.distributions import AdversarialLaw, Cap
from capsmooth.geometry import normalize
from capsmooth.montecarlo import (ExperimentConfig, estimate_expectation,
                                  estimate_tail, ks_radial_test)

PAIRS = [(3, 0.0), (3, 1.5), (4, 2.0), (10, 5.0)]


def e0(n):
    v = np.zeros(n + 1)
    v[0] = 1.0
    return v


def random_unit(n, seed):
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed, 2 ** 63], dtype=np.uint64)))
    return normalize(rng.standard_normal(n + 1))


def recurrence_oracle(m, sigma):
    """I_m(sigma) from the two closed-form base cases by the upward
    integration-by-parts recurrence, at the caller's mpmath precision.

    Each step subtracts two terms that agree to about sigma^2 relative,
    so the result loses about m log10(1/sigma) digits to cancellation;
    the recurrence runs with that many guard digits plus ten and rounds
    back at the end.
    """
    guard = math.ceil(m * math.log10(1.0 / sigma)) + 10
    with mpmath.workdps(mpmath.mp.dps + guard):
        s = mpmath.mpf(sigma)
        root = mpmath.sqrt(1 - s * s)
        cur = mpmath.asin(s) if m % 2 else 1 - root
        k = 3 if m % 2 else 4
        while k <= m:
            cur = ((k - 2) * cur - s ** (k - 2) * root) / (k - 1)
            k += 2
    return +cur


def test_recurrence_oracle_small_sigma():
    # without guard digits a 50-digit run is off by 1.8e-6 relative here
    with mpmath.workdps(50):
        got = recurrence_oracle(32, 0.04)
    with mpmath.workdps(100):
        want = mpmath.betainc(16, 0.5, 0, mpmath.mpf(0.04) ** 2) / 2
        assert abs(got / want - 1) <= mpmath.mpf(10) ** -48


def test_criterion_01():
    start = time.monotonic()
    worst = 0.0
    with mpmath.workdps(50):
        for m in range(1, 21):
            for sigma in np.arange(1, 11) / 10.0:
                got = volumes.cap_integral(m, sigma)
                want = float(recurrence_oracle(m, float(sigma)))
                worst = max(worst, abs(got - want) / want)
    elapsed = time.monotonic() - start
    print("[criterion 01] closed-form/recurrence oracles: worst rel err "
          "%.3g over m 1..20, sigma 0.1..1.0 (%.2fs)" % (worst, elapsed))
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_02():
    start = time.monotonic()
    ms = list(range(1, 21)) + [0.5, 1.5, 2.5, 7.5]
    sigmas = np.arange(1, 41) / 40.0
    rows = list(checks.sandwich_rows(ms, sigmas))
    assert all(lower.passed for _, _, lower, _ in rows)
    upper_bad = [(m, s) for m, s, _, upper in rows if not upper.passed]
    # measured validity region, split by the two known failure modes:
    # the sqrt(pi m / 2) multiplier is below 1 for m < 1 (fails at any
    # sigma there), and for m >= 1 the bound degrades only near 1
    bad_small_m = [(m, s) for m, s in upper_bad if m < 1.0]
    bad_near_one = [(m, s) for m, s in upper_bad if m >= 1.0]
    first_bad = min(s for _, s in bad_near_one)
    elapsed = time.monotonic() - start
    print("[criterion 02] lower sandwich holds at all %d points. Upper "
          "fails at %d points: %d with m < 1 (any sigma), %d with "
          "m >= 1 and sigma in [%.3g, 1]; it holds everywhere for "
          "m >= 1, sigma < %.3g (%.2fs)"
          % (len(rows), len(upper_bad), len(bad_small_m),
             len(bad_near_one), first_bad, first_bad, elapsed))
    assert all(s >= 0.9 for _, s in bad_near_one)
    for m in ms:
        assert not [upper for mm, s, _, upper in rows
                    if mm == m and s == 1.0][0].passed
    assert elapsed < 1.0


def test_criterion_03():
    worst = 0.0
    for n in range(1, 101):
        lhs = volumes.cap_measure(n, 1.0)
        rhs = 0.5 * volumes.sphere_volume(n)
        worst = max(worst, abs(lhs - rhs) / rhs)
    print("[criterion 03] half-sphere identity: worst rel err %.3g "
          "over n 1..100" % worst)
    assert worst <= 1e-10


def test_criterion_04():
    start = time.monotonic()
    stats = []
    for n, beta in PAIRS:
        for sigma in (0.5, 1.0):
            law = AdversarialLaw(Cap(e0(n), sigma), beta)
            res = ks_radial_test(law, 100000, seed=1001)
            stats.append(res.lhs)
            assert res.passed, (n, beta, sigma, res.lhs)
    control_law = AdversarialLaw(Cap(e0(3), 1.0), 1.5)
    control_ref = AdversarialLaw(Cap(e0(3), 1.0), 0.0)
    control = ks_radial_test(control_law, 100000, seed=1001,
                             reference=control_ref)
    elapsed = time.monotonic() - start
    print("[criterion 04] KS at 1%%: all 8 laws pass (max stat %.4g vs "
          "threshold %.4g); negative control stat %.3g fails (%.1fs)"
          % (max(stats), 1.63 / math.sqrt(100000), control.lhs, elapsed))
    assert not control.passed
    assert elapsed < 30.0


def test_criterion_05():
    start = time.monotonic()
    problem = hyperplane_problem(3)
    t0 = bounds.t0(3, 1, 0.5)
    grid = list(np.geomspace(t0, 1e4, 20))
    for center in (problem.ill_posed, random_unit(3, 2024)):
        law = AdversarialLaw(Cap(center, 0.5), 0.0)
        cfg = ExperimentConfig(problem, law, samples=10 ** 6, seed=71,
                               t_grid=grid, workers=2, scale="linear")
        rep = estimate_tail(cfg)
        assert all(r.bound_applicable for r in rep.rows)
        assert not rep.has_violation, [r.t for r in rep.rows
                                       if r.violation]
    elapsed = time.monotonic() - start
    print("[criterion 05] uniform tail, both centers, N=1e6: Wilson "
          "lower below 13dn/(sigma t) at all 20 grid points (%.1fs)"
          % elapsed)
    assert elapsed < 60.0


def test_criterion_06():
    start = time.monotonic()
    problem = hyperplane_problem(3)
    law = AdversarialLaw(Cap(problem.ill_posed, 0.5), 1.5)
    delta = bounds.delta_eps(3, 1.5, 0.5, 1.0, 0.25)
    t_eps = bounds.t_eps(3, 1, 0.5, delta)
    grid = list(np.linspace(t_eps, t_eps + 10.0, 12))
    cfg = ExperimentConfig(problem, law, samples=10 ** 6, seed=72,
                           t_grid=grid, workers=2, scale="log")
    rep = estimate_tail(cfg)
    elapsed = time.monotonic() - start
    worst = max(r.wilson_lower - r.bound for r in rep.rows)
    print("[criterion 06] boosted tail beta=1.5 H=1, N=1e6, t in "
          "[%.3g, %.3g]: Wilson lower below (78 e^-t)^(1/4) everywhere "
          "(worst margin %.3g) (%.1fs)" % (grid[0], grid[-1], worst,
                                           elapsed))
    assert all(r.bound_applicable for r in rep.rows)
    assert not rep.has_violation
    assert elapsed < 60.0


def test_criterion_07():
    start = time.monotonic()
    problem = hyperplane_problem(3)
    adv = AdversarialLaw(Cap(problem.ill_posed, 0.5), 1.5)
    cfg = ExperimentConfig(problem, adv, samples=10 ** 6, seed=73,
                           workers=2)
    rep = estimate_expectation(cfg)
    assert rep.margin > 0.0

    uni = AdversarialLaw(Cap(problem.ill_posed, 0.5), 0.0)
    cfg_u = ExperimentConfig(problem, uni, samples=10 ** 6, seed=73,
                             workers=2)
    rep_u = estimate_expectation(cfg_u)
    elapsed = time.monotonic() - start
    print("[criterion 07] E[ln C] + 3 stderr: adversarial %.4f <= "
          "%.4f, uniform %.4f <= %.4f (%.1fs)"
          % (rep.mean_ln_c + 3 * rep.stderr, rep.bound,
             rep_u.mean_ln_c + 3 * rep_u.stderr, rep_u.bound, elapsed))
    assert rep_u.margin > 0.0
    assert np.isclose(rep_u.bound, 8.5835, atol=1e-4)
    assert np.isclose(rep.bound, 10.613661307959376, rtol=1e-13)


def test_criterion_08():
    start = time.monotonic()
    grid = bounds.default_grid()
    violations = sum(not row.passed
                     for _, _, row in checks.boosting_rows(grid, 200))
    elapsed = time.monotonic() - start
    print("[criterion 08] boosting sweep: %d violations in %d checks "
          "(%.2fs)" % (violations, len(grid) * 200, elapsed))
    assert len(grid) == 648
    assert violations == 0
    assert elapsed < 10.0


def _premise_holds(n, sigma):
    """I_n(sigma) <= sqrt(pi n / 2) sigma^n / n, the I_m upper estimate
    through which the closed-form lower bound on delta_eps is derived.

    Checked through the upper value of cap_integral_bounds, which is at
    most sqrt(pi n / 2) sigma^n / n, so True here implies the estimate.
    """
    return volumes.cap_integral_bounds(n, sigma)[1] >= \
        volumes.cap_integral(n, sigma)


def _oracle_verdicts(n, beta, sigma, H):
    """The (lower, upper) verdicts of the delta_eps sandwich at
    (n, beta, sigma, H), recomputed with the mass ratio
    I_n(rho_eps) / I_n(sigma) and both closed-form bounds in 50-digit
    arithmetic, under the rows' own slack rule.

    The recurrence cancels at small radii: at n = 32, rho = 0.04 it keeps
    about 6 digits of the log ratio, far inside the closest verdict
    margin on the default grid (1.6e-4, n = 16 at sigma = 1).
    """
    alpha = 1.0 - beta / n
    rho = bounds.rho_eps(n, beta, sigma, H, 0.5 * alpha)
    with mpmath.workdps(50):
        log_value = mpmath.log(recurrence_oracle(n, rho)
                               / recurrence_oracle(n, sigma))
        q = 2 / (mpmath.pi * n)
        log_x = (-mpmath.log(H)
                 + mpmath.log(1 - q ** (mpmath.mpf(1) / n)) / 2)
        log_upper = 2 * log_x / mpmath.mpf(alpha)
        log_lower = mpmath.log(q) + log_upper
        tol_lo = bounds.SLACK * max(1, abs(log_lower))
        tol_hi = bounds.SLACK * max(1, abs(log_upper))
        return (bool(log_value >= log_lower - tol_lo),
                bool(log_value <= log_upper + tol_hi))


def _sandwich_flags(rows, premise, oracle):
    """Reasons the (lower, upper) CheckRows of a delta_eps sandwich
    break criterion 9 (empty when they do not).  premise is
    _premise_holds at the rows' (n, sigma); oracle is _oracle_verdicts
    there."""
    lower, upper = rows
    flags = []
    if not upper.passed:
        flags.append("upper bound fails")
    if premise and not lower.passed:
        flags.append("lower bound fails where its premise holds")
    if (lower.passed, upper.passed) != oracle:
        flags.append("verdicts disagree with the 50-digit oracle")
    return flags


def test_criterion_09():
    combos = sorted(set((p.n, p.beta, p.sigma, p.H)
                        for p in bounds.default_grid()))
    checked = []
    for key in combos:
        n, beta, sigma, H = key
        delta = bounds.delta_eps(n, beta, sigma, H, (1.0 - beta / n) / 2)
        for d in (1, 2, 5):
            assert (bounds.t_eps(n, d, sigma, delta)
                    > bounds.t0_log(n, d, sigma)), (n, d, sigma, beta, H)
        checked.append((key, bounds.delta_eps_sandwich(*key),
                        _premise_holds(n, sigma), _oracle_verdicts(*key)))
    flagged = [(key, _sandwich_flags(*c)) for key, *c in checked
               if _sandwich_flags(*c)]
    disagreements = sum((lower.passed, upper.passed) != oracle
                        for _, (lower, upper), _, oracle in checked)
    lower_bad = [(key, lower, premise)
                 for key, (lower, _), premise, _ in checked
                 if not lower.passed]
    shortfalls = [math.log(lower.rhs) - math.log(lower.lhs)
                  for _, lower, _ in lower_bad]

    # negative control: a lower-bound failure where the premise holds
    _, (lower, upper), premise, oracle = next(c for c in checked
                                              if c[0][2] == 0.5)
    control = _sandwich_flags((dataclasses.replace(lower, passed=False),
                               upper), premise, oracle)

    print("[criterion 09] t_eps > ln((1+2d)n/sigma) holds at all %d "
          "points; delta_eps upper bound holds at %d of %d grid points; "
          "lower bound fails at %d of %d (sigma in %s, n in %s, log "
          "shortfall %.3g..%.3g), %d of them where I_n(sigma) <= "
          "sqrt(pi n/2) sigma^n/n fails: KNOWN DEFECT of the displayed "
          "constant. Oracle disagreements %d; control flagged: %s"
          % (3 * len(combos),
             sum(upper.passed for _, (_, upper), _, _ in checked),
             len(combos), len(lower_bad), len(combos),
             sorted(set(key[2] for key, _, _ in lower_bad)),
             sorted(set(key[0] for key, _, _ in lower_bad)),
             min(shortfalls, default=math.nan),
             max(shortfalls, default=math.nan),
             sum(not premise for *_, premise in lower_bad), disagreements,
             "; ".join(control)))
    assert len(combos) == 216
    assert not flagged, flagged
    assert lower_bad, "the known sigma = 1 lower-bound failure vanished"
    assert "lower bound fails where its premise holds" in control
    assert "verdicts disagree with the 50-digit oracle" in control


def test_criterion_10():
    rows = [row for *_, row in checks.smoothness_rows(
        ((4, 0.0, 0.5), (4, 2.0, 0.5), (10, 5.0, 0.5)), 1e-6, 0.02)]
    worst = max(abs(row.lhs - row.rhs) for row in rows)
    print("[criterion 10] smoothness ratio at rho=1e-6: worst "
          "|ratio - alpha| = %.3g" % worst)
    assert all(row.passed for row in rows)


def test_criterion_11():
    ns = sorted(set(int(v) for v in np.geomspace(1, 10 ** 6, 200)))
    rows = [bounds.small_calc_check(n) for n in ns]
    failures = [n for n, row in zip(ns, rows) if not row.passed]
    margins = [row.rhs - row.lhs for row in rows]
    print("[criterion 11] closing inequality on %d grid points in "
          "[1, 1e6]: min margin %.4g at n=%d; failures (findings): %s"
          % (len(ns), min(margins), ns[int(np.argmin(margins))],
             failures if failures else "none"))
    assert ns[0] == 1 and ns[-1] == 10 ** 6
    # findings above are the record; the inequality in fact holds
    assert failures == []


def test_criterion_12():
    start = time.monotonic()
    sigma = 0.8
    rng = np.random.Generator(np.random.Philox(
        key=np.array([2026, 12], dtype=np.uint64)))
    checked = 0
    for n, beta in PAIRS:
        law = AdversarialLaw(Cap(e0(n), sigma), beta)
        for _ in range(100):
            k = int(rng.integers(1, 4))
            while True:
                pts = np.sort(rng.uniform(0.0, sigma, size=2 * k))
                if np.all(np.diff(pts) > 1e-6):
                    break
            shells = [(pts[2 * i], pts[2 * i + 1]) for i in range(k)]
            assert bounds.ball_maximizer_check(law, shells, slack=1e-12), \
                (n, beta, shells)
            checked += 1
    elapsed = time.monotonic() - start
    print("[criterion 12] centered ball maximizes law mass against %d "
          "random shell unions (slack 1e-12) (%.1fs)"
          % (checked, elapsed))
    assert checked == 400


def test_criterion_13():
    start = time.monotonic()
    problem = matrix_problem(3)
    assert problem.n == 8 and problem.degree == 3
    law = AdversarialLaw(Cap(problem.ill_posed, 0.5), 0.0)
    t0 = bounds.t0(8, 3, 0.5)
    grid = list(np.geomspace(t0, 1e4, 15))
    cfg = ExperimentConfig(problem, law, samples=10 ** 5, seed=74,
                           t_grid=grid, scale="linear")
    rep = estimate_tail(cfg)
    assert all(r.bound_applicable for r in rep.rows)
    assert not rep.has_violation

    # the package's sigma_min, ||A||_F / C(A), against the eigenvalue
    # oracle sigma_min^2 = lambda_min(A^T A)
    rng = np.random.Generator(np.random.Philox(
        key=np.array([13, 13], dtype=np.uint64)))
    a = np.array([rng.standard_normal((3, 3)) for _ in range(1000)])
    rows = a.reshape(-1, 9)
    got = np.linalg.norm(rows, axis=1) / problem.evaluate_batch(rows)
    ev = np.linalg.eigvalsh(np.transpose(a, (0, 2, 1)) @ a)[:, 0]
    worst = float(np.max(np.abs(got - np.sqrt(np.maximum(ev, 0.0)))))
    elapsed = time.monotonic() - start
    print("[criterion 13] matrix m=3 tail within bound on [%g, 1e4]; "
          "sigma_min vs eigenvalue oracle worst abs err %.3g over 1000 "
          "matrices (%.1fs)" % (t0, worst, elapsed))
    assert worst <= 1e-8
    assert elapsed < 60.0


def test_criterion_14(tmp_path, capsys):
    p1 = tmp_path / "w1.csv"
    p2 = tmp_path / "w2.csv"
    code1 = cli_main(["verify", "--quick", "--seed", "7",
                      "--workers", "1", "--out", str(p1)])
    code2 = cli_main(["verify", "--quick", "--seed", "7",
                      "--workers", "2", "--out", str(p2)])
    capsys.readouterr()
    same = p1.read_bytes() == p2.read_bytes()
    print("[criterion 14] verify with workers 1 vs 2, same seed: "
          "byte-identical reports = %s (exit codes %d, %d)"
          % (same, code1, code2))
    assert same
    assert code1 == code2
