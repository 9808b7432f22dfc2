"""The check battery of `capsmooth verify`, as one ordered registry.

BATTERY lists the entries in report order.  Each entry is a function of
(quick, seed, workers) that yields (check, params, CheckRow) triples;
checks named in SOFT report a finding without failing the run.  An entry
that summarises a sweep reports CheckRow(failing rows, 0, none failing).
The per-point sweeps behind the I_m sandwich, boosting and smoothness
checks, and the grid of the small_calc entry, are public, so the checker
subcommands and the acceptance tests run the same code on their own
grids.  Every parameter grid is a bounds.default_grid, pinned or not,
in its (n, beta, H, sigma, eps) order; grid_points takes its distinct
values on fewer axes, so the entries that never read eps check each of
its 216 (n, beta, sigma, H) once.  The boosting entry calls
bounds.boosting_check once per grid point, at rho_eps alone, which
boosting_check's monotonicity lemma makes sufficient; the radius sweep
of boosting_rows stays as the lemma's cross-check.  t_eps > t0 holds
whenever 0 < delta_eps < 1 (bounds.t_eps), so its row, which follows
the delta_eps sandwich rows, counts the points whose delta_eps, the
lhs of the lower sandwich row, lies outside (0, 1).  The tail runs
take their thresholds from montecarlo.threshold_grid, as the tail
subcommand does.
"""

import dataclasses
import operator

import numpy as np

from . import bounds, condnum, montecarlo, volumes
from ._args import integer
from .bounds import CheckRow
from .distributions import AdversarialLaw, Cap, uniform_law
from .geometry import normalize

__all__ = [
    "BATTERY",
    "SOFT",
    "grid_points",
    "sandwich_rows",
    "boosting_rows",
    "smoothness_rows",
    "small_calc_grid",
]

SOFT = frozenset(("cap_integral_sandwich_upper", "stated_minus_proof_chain",
                  "expectation_bound_gap"))

_SIG_GRID = np.linspace(0.05, 1.0, 20)


def sandwich_rows(ms, sigmas):
    """(m, sigma, lower, upper) of the I_m sandwich at each point of
    ms x sigmas: the two CheckRows compare I_m(sigma) with the bounds of
    volumes.cap_integral_bounds, each within SLACK times the upper
    bound.  The upper bound is known to fail near sigma = 1."""
    for m in map(float, ms):
        for sigma in map(float, sigmas):
            val = volumes.cap_integral(m, sigma)
            lo, hi = volumes.cap_integral_bounds(m, sigma)
            tol = bounds.SLACK * hi
            yield (m, sigma, CheckRow(val, lo, val >= lo - tol),
                   CheckRow(val, hi, val <= hi + tol))


def boosting_rows(grid, n_rho):
    """(p, rho, CheckRow) of the boosting inequality for each p in grid,
    at n_rho radii log-spaced from 1e-8 rho_eps up to rho_eps; one
    radius is rho_eps itself, where the log margin is smallest."""
    for p in grid:
        rmax = p.rho()
        for rho in np.geomspace(rmax * 1e-8 if n_rho > 1 else rmax, rmax,
                                n_rho):
            rho = float(rho)
            yield p, rho, bounds.boosting_check(p.n, p.beta, p.sigma, p.H,
                                                p.eps, rho)


def grid_points(grid, *axes):
    """The distinct tuples of the named BoostParams fields over grid, in
    grid order, as the keys of a dict."""
    return dict.fromkeys(map(operator.attrgetter(*axes), grid))


def smoothness_rows(points, rho, tol):
    """(n, beta, sigma, CheckRow) of the mass ratio at radius rho against
    alpha, for the pole law on a cap of each (n, beta, sigma) in points."""
    for n, beta, sigma in points:
        law = AdversarialLaw(Cap(np.eye(n + 1)[0], sigma), beta)
        yield n, beta, sigma, bounds.smoothness_check(law, rho, tol)


def small_calc_grid(n_max, points):
    """Distinct integers of a points-long log grid on [1, n_max]; both
    are integers of at least 1."""
    return sorted({int(v) for v in np.geomspace(
        1, integer(n_max, "n_max"), integer(points, "points"))})


def _failures(rows):
    """CheckRow(number of failing rows, 0, none failing) of a sweep."""
    bad = sum(not row.passed for row in rows)
    return CheckRow(float(bad), 0.0, bad == 0)


def _cap_integral_closed_form(quick, seed, workers):
    worst = 0.0
    for m in range(1, 21):
        for s in _SIG_GRID:
            a = volumes.cap_integral(m, s)
            b = volumes.cap_integral_series(m, s)
            worst = max(worst, abs(a - b) / b)
    yield ("cap_integral_closed_form", "m=1..20",
           CheckRow(worst, 1e-10, worst <= 1e-10))


def _cap_integral_mpmath(quick, seed, workers):
    worst = 0.0
    for m in (0.5, 1.0, 2.5, 3.0, 7.5, 16.0, 33.5):
        for s in (0.1, 0.5, 0.9, 1.0):
            a = volumes.cap_integral(m, s)
            b = volumes.cap_integral_mpmath(m, s)
            worst = max(worst, abs(a - b) / b)
    yield ("cap_integral_mpmath", "m real grid",
           CheckRow(worst, 1e-9, worst <= 1e-9))


def _half_sphere_identity(quick, seed, workers):
    # O_{n-1} I_n(1) = O_n / 2
    worst = 0.0
    for n in range(1, 101):
        lhs = volumes.cap_measure(n, 1.0)
        rhs = 0.5 * volumes.sphere_volume(n)
        worst = max(worst, abs(lhs - rhs) / rhs)
    yield ("half_sphere_identity", "n=1..100",
           CheckRow(worst, 1e-12, worst <= 1e-12))


def _cap_integral_sandwich(quick, seed, workers):
    # lower bound everywhere, upper bound region reported
    rows = list(sandwich_rows(range(1, 51), _SIG_GRID))
    yield ("cap_integral_sandwich_lower", "m=1..50",
           _failures(lower for _, _, lower, _ in rows))
    upper_bad = [(m, s) for m, s, _, upper in rows if not upper.passed]
    upper_note = "none"
    if upper_bad:
        ms, sigmas = zip(*upper_bad)
        upper_note = "m=%g..%g sigma>=%.3g" % (min(ms), max(ms), min(sigmas))
    yield ("cap_integral_sandwich_upper", "violations: " + upper_note,
           _failures(upper for *_, upper in rows))


def _cap_integral_monotone_m(quick, seed, workers):
    # I_{m+1}(sigma) <= I_m(sigma), within SLACK relative
    vals = [[volumes.cap_integral(m, s) for m in range(1, 51)]
            for s in _SIG_GRID]
    yield ("cap_integral_monotone_m", "m=1..50", _failures(
        CheckRow(b, a * (1 + bounds.SLACK), b <= a * (1 + bounds.SLACK))
        for row in vals for a, b in zip(row, row[1:])))


def _small_calc(quick, seed, workers):
    # elementary n-dependent inequality used by the expectation proof
    ns = small_calc_grid(10 ** 6, 30 if quick else 200)
    yield ("small_calc", "n=1..1e6 log grid",
           _failures(map(bounds.small_calc_check, ns)))


def _boosting_inequality(quick, seed, workers):
    # lhs - rhs increases in rho (boosting_check), so the inequality
    # holds on (0, rho_eps] iff it holds at rho_eps
    yield ("boosting_inequality", "grid at rho_eps", _failures(
        bounds.boosting_check(p.n, p.beta, p.sigma, p.H, p.eps, p.rho())
        for p in bounds.default_grid()))


def _eps_free_points():
    """The 216 distinct (n, beta, sigma, H) of the default grid, in grid
    order: the points of the entries that never read eps."""
    return grid_points(bounds.default_grid(), "n", "beta", "sigma", "H")


def _delta_eps_sandwich(quick, seed, workers):
    # one pair of rows per (n, beta, sigma, H), then t_eps > t0 at every
    # d through its premise 0 < delta_eps < 1 (bounds.t_eps)
    bad = 0
    for key in _eps_free_points():
        lower, upper = bounds.delta_eps_sandwich(*key)
        params = "n=%d beta=%g sigma=%g H=%g" % key
        yield "delta_eps_sandwich_lower", params, lower
        yield "delta_eps_sandwich_upper", params, upper
        bad += not 0.0 < lower.lhs < 1.0
    yield ("t_eps_exceeds_t0", "grid, 0 < delta_eps < 1, every d",
           CheckRow(float(bad), 0.0, bad == 0))


def _smoothness_ratio_limit(quick, seed, workers):
    # mass ratio approaches alpha at small radius
    sigma, tol = 0.5, 0.02
    points = grid_points(bounds.default_grid(sigma=sigma), "n", "beta",
                         "sigma")
    rows = [row for *_, row in smoothness_rows(points, 1e-6 * sigma, tol)]
    # the verdict is the rows': max() would skip a NaN row past the first
    worst = max(abs(row.lhs - row.rhs) for row in rows)
    yield ("smoothness_ratio_limit", "rho=1e-6 sigma",
           CheckRow(worst, tol, all(row.passed for row in rows)))


def _stated_minus_proof_chain(quick, seed, workers):
    worst = min(bounds.adversarial_expectation_bound(n, 1, sigma, beta, H)
                - bounds.adversarial_expectation_bound_proof_chain(
                    n, 1, sigma, beta, H)
                for n, beta, sigma, H in _eps_free_points())
    yield ("stated_minus_proof_chain", "grid, min gap",
           CheckRow(worst, 0.0, worst >= -bounds.SLACK))


def _expectation_bound_gap(quick, seed, workers):
    # overlap of the two expectation theorems at beta=0, H=1
    gaps = [bounds.expectation_bound_gap(n, d, s)
            for n in (2, 3, 8, 32) for d in (1, 2, 5)
            for s in (0.1, 0.5, 1.0)]
    yield ("expectation_bound_gap", "min..max over grid",
           CheckRow(min(gaps), max(gaps), True))


def _ball_maximizer(quick, seed, workers):
    # centered balls maximize law mass among equal-uniform-mass shells
    n_shells = 10 if quick else 100
    for n, beta in ((3, 0.0), (3, 1.5), (10, 5.0)):
        law = AdversarialLaw(Cap(np.eye(n + 1)[0], 0.8), beta)
        edges = np.linspace(0.0, 0.8, 2 * n_shells + 1)
        shells = [(edges[2 * i + 1], edges[2 * i + 2])
                  for i in range(n_shells)]
        ok = bounds.ball_maximizer_check(law, shells)
        yield ("ball_maximizer", "n=%d beta=%g" % (n, beta),
               CheckRow(0.0 if ok else 1.0, 0.0, ok))


def _ks_radial(quick, seed, workers):
    # radial goodness of fit, then a mismatched reference that must be
    # detected
    n_ks = 20000 if quick else 100000
    for n, beta in ((3, 0.0), (3, 1.5), (4, 2.0), (10, 5.0)):
        for sigma in (0.5, 1.0):
            law = AdversarialLaw(Cap(np.eye(n + 1)[0], sigma), beta)
            yield ("ks_radial", "n=%d beta=%g sigma=%g" % (n, beta, sigma),
                   montecarlo.ks_radial_test(law, n_ks, seed))
    cap = Cap(np.eye(4)[0], 0.5)
    res = montecarlo.ks_radial_test(AdversarialLaw(cap, 1.5), n_ks, seed,
                                    reference=uniform_law(cap))
    yield ("ks_negative_control", "beta=1.5 vs uniform",
           dataclasses.replace(res, passed=not res.passed))


def _sigma_min_eigen_oracle(quick, seed, workers):
    # sigma_min by LAPACK's batched SVD and by matrix batches, as
    # ||A||_F / C (the closed form for m = 2, 3), both against the
    # eigenvalue route; the matrices are drawn one by one and each route
    # runs once per stack of one size
    rng = montecarlo.stream_rng(seed, 7)
    by_size = {}
    for _ in range(1000):
        m = int(rng.integers(2, 9))
        by_size.setdefault(m, []).append(rng.standard_normal((m, m)))
    worst = 0.0
    for m, mats in by_size.items():
        stack = np.stack(mats)
        svd = np.linalg.svd(stack, compute_uv=False)[:, -1]
        gram = np.linalg.eigvalsh(np.swapaxes(stack, 1, 2) @ stack)[:, 0]
        eig = np.sqrt(np.maximum(gram, 0.0))
        rows = stack.reshape(len(stack), -1)
        batch = (np.linalg.norm(rows, axis=1)
                 / condnum.matrix_problem(m).evaluate_batch(rows))
        worst = max(worst, float(np.max(np.abs(svd - eig))),
                    float(np.max(np.abs(batch - eig))))
    yield ("sigma_min_eigen_oracle", "1000 random",
           CheckRow(worst, 1e-8, worst <= 1e-8))


def _tail_and_expectation(quick, seed, workers):
    """Tail runs check 12 thresholds from the start of the theorem's
    range: lhs is the largest Wilson lower limit over the bound, among
    the thresholds where the bound applies (0 if none), rhs is 1, and a
    run passes when no threshold is flagged.  Expectation runs compare
    mean + 3 stderr."""
    n_mc = 50000 if quick else 200000
    hp = condnum.hyperplane_problem(3)
    mp = condnum.matrix_problem(3)
    cap_pole = Cap(hp.ill_posed, 0.5)
    cap_m = Cap(mp.ill_posed, 0.5)
    runs = (
        ("tail_uniform_center", hp,
         uniform_law(Cap(normalize(np.ones(4)), 0.5)), "linear"),
        ("tail_uniform_pole", hp, uniform_law(cap_pole), "linear"),
        ("tail_boosted_pole", hp, AdversarialLaw(cap_pole, 1.5), "log"),
        ("expect_uniform", hp, uniform_law(cap_pole), None),
        ("expect_adversarial", hp, AdversarialLaw(cap_pole, 1.5), None),
        ("tail_matrix_uniform", mp, uniform_law(cap_m), "linear"),
        ("tail_matrix_boosted", mp, AdversarialLaw(cap_m, 4.0), "log"),
    )
    for check, problem, law, scale in runs:
        cfg = montecarlo.ExperimentConfig(
            problem=problem, law=law, samples=n_mc, seed=seed, scale=scale,
            workers=workers)
        if scale is None:
            rep = montecarlo.estimate_expectation(cfg)
            row = CheckRow(rep.mean_ln_c + 3 * rep.stderr, rep.bound,
                           not rep.has_violation)
        else:
            cfg = dataclasses.replace(
                cfg, t_grid=montecarlo.threshold_grid(cfg, 12))
            rep = montecarlo.estimate_tail(cfg)
            worst = max((r.wilson_lower / r.bound for r in rep.rows
                         if r.bound_applicable), default=0.0)
            row = CheckRow(worst, 1.0, not rep.has_violation)
        yield check, "N=%d" % n_mc, row


BATTERY = (
    _cap_integral_closed_form,
    _cap_integral_mpmath,
    _half_sphere_identity,
    _cap_integral_sandwich,
    _cap_integral_monotone_m,
    _small_calc,
    _boosting_inequality,
    _delta_eps_sandwich,
    _smoothness_ratio_limit,
    _stated_minus_proof_chain,
    _expectation_bound_gap,
    _ball_maximizer,
    _ks_radial,
    _sigma_min_eigen_oracle,
    _tail_and_expectation,
)
