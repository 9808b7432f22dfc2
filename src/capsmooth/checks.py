"""The check battery of `capsmooth verify`, as one ordered registry.

BATTERY lists the entries in report order.  Each entry is a function of
(quick, seed, workers) that yields (check, params, CheckRow) triples;
checks named in SOFT report a finding without failing the run.  An entry
that summarises a sweep reports CheckRow(failing rows, 0, none failing).
The per-point sweeps behind the I_m sandwich, boosting and smoothness
checks, and the grid of the small_calc entry, are public, so the checker
subcommands and the acceptance tests run the same code on their own
grids.  The boosting entry itself checks each grid point at rho_eps
alone, which boosting_check's monotonicity lemma makes sufficient; the
radius sweep of boosting_rows stays as the lemma's cross-check.
"""

import dataclasses
import math

import numpy as np

from . import bounds, condnum, montecarlo, volumes
from .bounds import CheckRow
from .distributions import AdversarialLaw, Cap, uniform_law
from .geometry import normalize

__all__ = [
    "BATTERY",
    "SOFT",
    "grid_axes",
    "boost_grid",
    "sandwich_rows",
    "boosting_rows",
    "smoothness_rows",
    "small_calc_grid",
]

SOFT = frozenset(("cap_integral_sandwich_upper", "stated_minus_proof_chain",
                  "expectation_bound_gap"))

_SIG_GRID = np.linspace(0.05, 1.0, 20)


def grid_axes(n=None, beta=None, sigma=None):
    """(n, beta, sigma) over the default axes; an axis given a value
    collapses to it.  beta runs over the default fractions of n."""
    if n is not None and not n >= 1:
        raise ValueError("n must be a positive integer, got %r" % (n,))
    ns = [n] if n is not None else list(bounds.DEFAULT_N)
    sigmas = [sigma] if sigma is not None else list(bounds.DEFAULT_SIGMA)
    for k in ns:
        betas = ([beta] if beta is not None
                 else [f * k for f in bounds.DEFAULT_BETA_FRACTIONS])
        for b in betas:
            for s in sigmas:
                yield k, b, s


def boost_grid(n=None, beta=None, sigma=None, H=None, eps=None):
    """BoostParams in (n, beta, sigma, H, eps) order, axes as in
    grid_axes; eps runs over the default fractions of alpha."""
    hs = [H] if H is not None else list(bounds.DEFAULT_H)
    for k, b, s in grid_axes(n, beta, sigma):
        alpha = 1.0 - b / k
        eps_list = ([eps] if eps is not None
                    else [f * alpha for f in bounds.DEFAULT_EPS_FRACTIONS])
        for h in hs:
            for e in eps_list:
                yield bounds.BoostParams(n=k, beta=b, sigma=s, H=h, eps=e)


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
    at n_rho radii log-spaced from 1e-8 rho_eps up to rho_eps."""
    for p in grid:
        rmax = p.rho()
        for rho in np.geomspace(rmax * 1e-8, rmax, n_rho):
            rho = float(rho)
            yield p, rho, bounds.boosting_check(p.n, p.beta, p.sigma, p.H,
                                                p.eps, rho)


def smoothness_rows(points, rho, tol):
    """(n, beta, sigma, CheckRow) of the mass ratio at radius rho against
    alpha, for the pole law on a cap of each (n, beta, sigma) in points."""
    for n, beta, sigma in points:
        law = AdversarialLaw(Cap(np.eye(n + 1)[0], sigma), beta)
        yield n, beta, sigma, bounds.smoothness_check(law, rho, tol)


def small_calc_grid(n_max, points):
    """Distinct integers of a points-long log grid on [1, n_max]."""
    return sorted({int(v) for v in np.geomspace(1, n_max, points)})


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
        lhs = volumes.sphere_volume(n - 1) * volumes.cap_integral(n, 1.0)
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
    # I_{m+1}(sigma) <= I_m(sigma), within 1e-12 relative
    vals = [[volumes.cap_integral(m, s) for m in range(1, 51)]
            for s in _SIG_GRID]
    yield ("cap_integral_monotone_m", "m=1..50", _failures(
        CheckRow(b, a * (1 + 1e-12), b <= a * (1 + 1e-12))
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


def _delta_eps_sandwich(quick, seed, workers):
    # one pair of rows per (n, beta, sigma, H)
    seen = set()
    for p in bounds.default_grid():
        key = (p.n, p.beta, p.sigma, p.H)
        if key in seen:
            continue
        seen.add(key)
        lower, upper = bounds.delta_eps_sandwich(*key)
        params = "n=%d beta=%g sigma=%g H=%g" % key
        yield "delta_eps_sandwich_lower", params, lower
        yield "delta_eps_sandwich_upper", params, upper


def _t_eps_exceeds_t0(quick, seed, workers):
    yield ("t_eps_exceeds_t0", "grid x d in {1,2,5}", _failures(
        bounds.t_eps_exceeds_t0(p.n, d, p.sigma, p.beta, p.H)
        for p in bounds.default_grid() for d in (1, 2, 5)))


def _smoothness_ratio_limit(quick, seed, workers):
    # mass ratio approaches alpha at small radius
    sigma, tol = 0.5, 0.02
    rows = smoothness_rows(grid_axes(sigma=sigma), 1e-6 * sigma, tol)
    worst = max(abs(row.lhs - row.rhs) for *_, row in rows)
    yield ("smoothness_ratio_limit", "rho=1e-6 sigma",
           CheckRow(worst, tol, worst <= tol))


def _stated_minus_proof_chain(quick, seed, workers):
    worst = math.inf
    for p in bounds.default_grid():
        a = bounds.adversarial_expectation_bound(p.n, 1, p.sigma, p.beta,
                                                 p.H)
        b = bounds.adversarial_expectation_bound_proof_chain(
            p.n, 1, p.sigma, p.beta, p.H)
        worst = min(worst, a - b)
    yield ("stated_minus_proof_chain", "grid, min gap",
           CheckRow(worst, 0.0, worst >= -1e-12))


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
    """Tail runs count flagged thresholds on 12 points from the start of
    the theorem's range; expectation runs compare mean + 3 stderr."""
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
                           rep.margin >= 0.0)
        else:
            lo, _ = bounds.tail_theorem(problem.n, problem.degree,
                                        law.cap.sigma, law.beta, law.H,
                                        scale)
            cfg = dataclasses.replace(cfg, t_grid=(
                np.geomspace(lo, 1e4 * lo, 12) if scale == "linear"
                else np.linspace(lo, lo + 8.0, 12)))
            n_viol = sum(1 for r in montecarlo.estimate_tail(cfg).rows
                         if r.violation)
            row = CheckRow(float(n_viol), 0.0, n_viol == 0)
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
    _t_eps_exceeds_t0,
    _smoothness_ratio_limit,
    _stated_minus_proof_chain,
    _expectation_bound_gap,
    _ball_maximizer,
    _ks_radial,
    _sigma_min_eigen_oracle,
    _tail_and_expectation,
)
