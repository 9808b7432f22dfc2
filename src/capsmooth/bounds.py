"""Tail and expectation bounds for conic condition numbers on caps.

For a problem of degree d in projective dimension n and the uniform law
on a cap of radius sigma, the tail bound is

    P(C >= t) <= 13 d n / (sigma t)          for t >= t0 = (2d+1) n / sigma,

with the equivalent exponential form P(ln C > t) <= (13 d n / sigma) e^(-t)
for t >= ln((1+2d) n / sigma), and the expectation bound

    E[ln C] <= 2 ln n + 2 ln d + 2 ln(1/sigma) + 5.

For a pole law with exponent beta and radial sup H, the uniform tail is
boosted through a smoothness exponent alpha = 1 - beta/n: for
t >= t_eps := ln(13 d n / (sigma delta_eps)),

    P(ln C > t) <= ((13 d n / sigma) e^(-t))^((1 - beta/n) / 2),

where delta_eps is the uniform mass of the sub-cap of radius rho_eps
and eps is fixed to half of alpha.  The expectation bound becomes

    E[ln C] <= 2 ln n + ln d + ln(1/sigma) + ln(13 pi / 2)
               + (1/alpha) ln(2 e H^2 n / ln(pi n / 2)).

A law c r^(-beta) h(r) falls under the uniform theorems only when
beta = 0 and H <= 1, the constant profile (uniform_covers); every other
law, a falling profile at beta = 0 among them, is held to the boosted
ones.  tail_theorem and expectation_theorem apply that rule for a run.

Everything here is a plain formula evaluator or a deterministic
checker; nothing samples.  Evaluators raise on arguments outside their
stated domain rather than clamping.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._args import check_beta, check_sigma, integer
from .distributions import uniform_law
from .volumes import log_cap_integral

__all__ = [
    "t0",
    "t0_log",
    "uniform_tail_bound",
    "uniform_log_tail_bound",
    "uniform_expectation_bound",
    "smoothness_alpha",
    "smoothness_ratio",
    "rho_eps",
    "delta_eps",
    "t_eps",
    "boosted_tail_bound",
    "adversarial_expectation_bound",
    "adversarial_expectation_bound_proof_chain",
    "expectation_bound_gap",
    "uniform_covers",
    "tail_theorem",
    "expectation_theorem",
    "SLACK",
    "CheckRow",
    "boosting_check",
    "small_calc_check",
    "smoothness_check",
    "ball_maximizer_check",
    "BoostParams",
    "delta_eps_sandwich",
    "t_eps_exceeds_t0",
    "default_grid",
]

DEFAULT_N = (2, 3, 4, 8, 16, 32)
DEFAULT_BETA_FRACTIONS = (0.0, 0.25, 0.5, 0.75)
DEFAULT_H = (1.0, 2.0, 10.0)
DEFAULT_SIGMA = (0.1, 0.5, 1.0)
DEFAULT_EPS_FRACTIONS = (0.25, 0.5, 0.75)

# relative tolerance of the float verdicts; each check scales it by its
# own rule
SLACK = 1e-12


def _check_H(H):
    H = float(H)
    if not (H >= 1.0):
        raise ValueError("H must be >= 1, got %r" % (H,))
    return H


def _check_eps(n, beta, eps):
    eps = float(eps)
    alpha = 1.0 - beta / n
    if not (0.0 < eps < alpha):
        raise ValueError("eps must lie in (0, 1 - beta/n) = (0, %g), got %r"
                         % (alpha, eps))
    return eps


def t0(n, d, sigma):
    """Smallest t covered by the linear-scale uniform tail bound."""
    n, d, sigma = integer(n, "n"), integer(d, "d"), check_sigma(sigma)
    return (2.0 * d + 1.0) * n / sigma


def t0_log(n, d, sigma):
    """Smallest t covered by the exponential-form uniform tail bound."""
    n, d, sigma = integer(n, "n"), integer(d, "d"), check_sigma(sigma)
    return math.log((1.0 + 2.0 * d) * n / sigma)


def uniform_tail_bound(n, d, sigma, t):
    """13 d n / (sigma t); valid for t >= t0(n, d, sigma)."""
    n, d, sigma = integer(n, "n"), integer(d, "d"), check_sigma(sigma)
    t = float(t)
    if t < t0(n, d, sigma):
        raise ValueError("tail bound requires t >= t0 = %g, got t = %g"
                         % (t0(n, d, sigma), t))
    return 13.0 * d * n / (sigma * t)


def uniform_log_tail_bound(n, d, sigma, t):
    """(13 d n / sigma) e^(-t); valid for t >= t0_log(n, d, sigma)."""
    n, d, sigma = integer(n, "n"), integer(d, "d"), check_sigma(sigma)
    t = float(t)
    if t < t0_log(n, d, sigma):
        raise ValueError("log tail bound requires t >= %g, got t = %g"
                         % (t0_log(n, d, sigma), t))
    return math.exp(math.log(13.0 * d * n / sigma) - t)


def uniform_expectation_bound(n, d, sigma):
    """Upper bound on E[ln C] under the uniform cap law."""
    n, d, sigma = integer(n, "n"), integer(d, "d"), check_sigma(sigma)
    return (2.0 * math.log(n) + 2.0 * math.log(d)
            + 2.0 * math.log(1.0 / sigma) + 5.0)


def smoothness_alpha(n, beta):
    """Smoothness exponent alpha = 1 - beta/n of the pole law."""
    n = integer(n, "n")
    beta = check_beta(n, beta)
    return 1.0 - beta / n


def smoothness_ratio(law, rho):
    """log mu(B(a, rho)) / log nu(B(a, rho)) for the law against uniform.

    Tends to alpha = 1 - beta/n as rho -> 0.  Requires 0 < rho < sigma
    so both logs are negative.
    """
    sigma = law.cap.sigma
    rho = float(rho)
    if not (0.0 < rho < sigma):
        raise ValueError("rho must lie strictly inside (0, sigma)")
    num = law.log_radial_cdf(rho)
    den = log_cap_integral(law.cap.n, rho) - log_cap_integral(law.cap.n,
                                                              sigma)
    if num >= 0.0 or den >= 0.0:
        raise ValueError("rho too close to sigma for a meaningful ratio")
    return num / den


def _q(n):
    return 2.0 / (math.pi * n)


def rho_eps(n, beta, sigma, H, eps):
    """Radius below which the pole mass is provably alpha-smooth.

    rho_eps = sigma * ((1/H) sqrt(1 - q^lam))^(1/(eps n)) * q^(lam/2)
    with q = 2/(pi n) and lam = (1 - beta/n - eps)/(eps n).  Always lies
    strictly between 0 and sigma.
    """
    n = integer(n, "n")
    beta, sigma = check_beta(n, beta), check_sigma(sigma)
    H = _check_H(H)
    eps = _check_eps(n, beta, eps)
    q = _q(n)
    lam = (1.0 - beta / n - eps) / (eps * n)
    # 1 - q^lam via expm1 keeps precision when q^lam is close to 1
    one_minus = -math.expm1(lam * math.log(q))
    log_first = (math.log(1.0 / H) + 0.5 * math.log(one_minus)) / (eps * n)
    log_second = 0.5 * lam * math.log(q)
    return sigma * math.exp(log_first + log_second)


def delta_eps(n, beta, sigma, H, eps):
    """Uniform mass of the sub-cap of radius rho_eps: I_n(rho)/I_n(sigma)."""
    rho = rho_eps(n, beta, sigma, H, eps)
    return math.exp(log_cap_integral(n, rho) - log_cap_integral(n, sigma))


def t_eps(n, d, sigma, delta_e):
    """Threshold ln(13 d n / (sigma delta_e)) of the boosted tail bound."""
    n, d, sigma = integer(n, "n"), integer(d, "d"), check_sigma(sigma)
    delta_e = float(delta_e)
    if not (0.0 < delta_e < 1.0):
        raise ValueError("delta_e must lie in (0, 1), got %r" % (delta_e,))
    return math.log(13.0 * d * n / sigma) - math.log(delta_e)


def boosted_tail_bound(n, d, sigma, beta, t):
    """((13 d n / sigma) e^(-t))^(alpha/2) with alpha = 1 - beta/n.

    Valid for t >= t_eps at eps = alpha/2 (the choice made once and for
    all in the tail theorem).  t_eps grows with the profile sup H, so the
    guard here uses H = 1, the smallest admissible threshold; callers
    with H > 1 must check their own t_eps.
    """
    n, d, sigma = integer(n, "n"), integer(d, "d"), check_sigma(sigma)
    beta = check_beta(n, beta)
    t = float(t)
    alpha = 1.0 - beta / n
    thr = t_eps(n, d, sigma, delta_eps(n, beta, sigma, 1.0, 0.5 * alpha))
    if t < thr:
        raise ValueError("boosted tail bound requires t >= t_eps = %g, "
                         "got t = %g" % (thr, t))
    return math.exp(0.5 * alpha * (math.log(13.0 * d * n / sigma) - t))


def adversarial_expectation_bound(n, d, sigma, beta, H):
    """Stated upper bound on E[ln C] under the pole law."""
    n, d, sigma = integer(n, "n"), integer(d, "d"), check_sigma(sigma)
    beta = check_beta(n, beta)
    H = _check_H(H)
    alpha = 1.0 - beta / n
    lead = (2.0 * math.log(n) + math.log(d) + math.log(1.0 / sigma)
            + math.log(13.0 * math.pi / 2.0))
    inner = 2.0 * math.e * H * H * n / math.log(math.pi * n / 2.0)
    return lead + math.log(inner) / alpha


def adversarial_expectation_bound_proof_chain(n, d, sigma, beta, H):
    """Sharper intermediate form of the expectation bound.

    Same leading terms, but the final simplification is not applied:
    the alpha-dependent term is kept as
    (2/alpha) (ln(H / sqrt(1 - q^(1/n))) + sqrt(1 - q^(1/n)) / H).
    """
    n, d, sigma = integer(n, "n"), integer(d, "d"), check_sigma(sigma)
    beta = check_beta(n, beta)
    H = _check_H(H)
    alpha = 1.0 - beta / n
    q = _q(n)
    root = math.sqrt(-math.expm1(math.log(q) / n))
    lead = (2.0 * math.log(n) + math.log(d) + math.log(1.0 / sigma)
            + math.log(13.0 * math.pi / 2.0))
    return lead + (2.0 / alpha) * (math.log(H / root) + root / H)


def expectation_bound_gap(n, d, sigma):
    """Pole-law bound at beta = 0, H = 1 minus the uniform bound.

    The two theorems overlap there but were derived separately, so the
    gap quantifies the slack of the boosted route; it is reported, not
    asserted to have a sign.
    """
    return (adversarial_expectation_bound(n, d, sigma, 0.0, 1.0)
            - uniform_expectation_bound(n, d, sigma))


def _law_sup(H):
    """The profile sup H of a law as the theorems read it.  A normalized
    profile averages 1 against the pole law of its beta, so its sup is
    at least 1, and 1 only for the constant profile; a computed sup
    within SLACK of 1 is that profile up to rounding, and reads as 1."""
    return 1.0 if abs(H - 1.0) <= SLACK else H


def uniform_covers(beta, H):
    """Whether the uniform-law theorems cover a law of pole exponent
    beta and profile sup H: beta = 0 and H <= 1, up to rounding, which
    after normalization only the constant profile meets.  Every other
    law is held to the boosted theorems at its own H."""
    return beta == 0.0 and _law_sup(H) <= 1.0


def tail_theorem(n, d, sigma, beta, H, scale):
    """Which tail theorem covers a law, and where its range starts.

    Returns (t_min, bound): bound(t) bounds P(C >= t) on the "linear"
    scale or P(ln C > t) on the "log" scale, for t >= t_min.  A law
    that uniform_covers is held to the uniform theorem; any other to
    the boosted one, on the log scale, with the threshold t_eps of the
    law's own sup H.  On the linear scale only the uniform theorem
    exists, so such a law gets bound None; t_min is still t0.
    """
    if uniform_covers(beta, H):
        if scale == "linear":
            return t0(n, d, sigma), partial(uniform_tail_bound, n, d, sigma)
        return (t0_log(n, d, sigma),
                partial(uniform_log_tail_bound, n, d, sigma))
    if scale == "linear":
        return t0(n, d, sigma), None
    delta = delta_eps(n, beta, sigma, _law_sup(H), 0.5 * (1.0 - beta / n))
    return (t_eps(n, d, sigma, delta),
            partial(boosted_tail_bound, n, d, sigma, beta))


def expectation_theorem(n, d, sigma, beta, H):
    """The expectation bound that covers a law: the uniform one for a
    law that uniform_covers, else the pole-law bound at the law's H."""
    if uniform_covers(beta, H):
        return uniform_expectation_bound(n, d, sigma)
    return adversarial_expectation_bound(n, d, sigma, beta, _law_sup(H))


@dataclass(frozen=True)
class CheckRow:
    """Both sides of one checked inequality and its verdict: the one
    result type of every checker here but ball_maximizer_check, and of
    montecarlo.ks_radial_test.

    Truth-testing raises TypeError, so a caller must read .passed: an
    `assert check(...)` on a row could otherwise never fail.
    """
    lhs: float
    rhs: float
    passed: bool

    def __bool__(self):
        raise TypeError("a CheckRow has no truth value; read .passed")


def boosting_check(n, beta, sigma, H, eps, rho):
    """Core smoothness inequality behind the tail boosting, in log space.

    Checks  H * I_m(rho) / I_m(sigma) <= (I_n(rho) / I_n(sigma))^(1-beta/n-eps)
    with m = n - beta, for 0 < rho <= rho_eps.  Returns a CheckRow of
    the two logs; it passes when lhs <= rhs + SLACK max(1, |rhs|).

    Lemma: f(rho) = lhs - rhs is strictly increasing on (0, 1], so the
    inequality holds on (0, rho_eps] iff it holds at rho_eps.  Proof:
    with alpha = m/n and g_k(rho) = rho^k / (k I_k(rho)),

        f'(rho) = n / (rho sqrt(1 - rho^2)) * [alpha g_m - (alpha - eps) g_n].

    Substituting r = rho u in I_k gives
    k I_k(rho) / rho^k = E[(1 - rho^2 U^2)^(-1/2)] with U ~ Beta(k, 1),
    whose law is stochastically increasing in k while the integrand
    increases in u; so 1/g_k grows with k, and m <= n gives g_m >= g_n.
    Hence f' >= n eps g_n / (rho sqrt(1 - rho^2)) > 0.  The slack
    term only widens as rho falls (|rhs| grows), so the verdict with
    its slack at rho_eps also carries over to every smaller radius.
    """
    n = integer(n, "n")
    beta, sigma = check_beta(n, beta), check_sigma(sigma)
    H = _check_H(H)
    eps = _check_eps(n, beta, eps)
    rho = float(rho)
    rmax = rho_eps(n, beta, sigma, H, eps)
    if not (0.0 < rho <= rmax * (1.0 + 1e-12)):
        raise ValueError("rho must lie in (0, rho_eps], rho_eps = %g" % rmax)
    m = n - beta
    lhs = (math.log(H) + log_cap_integral(m, rho)
           - log_cap_integral(m, sigma))
    rhs = (1.0 - beta / n - eps) * (log_cap_integral(n, rho)
                                    - log_cap_integral(n, sigma))
    return CheckRow(lhs, rhs, lhs <= rhs + SLACK * max(1.0, abs(rhs)))


def small_calc_check(n):
    """Check (1 - q^(1/n))^(-1/2) <= sqrt(2n / ln(pi n / 2)), q = 2/(pi n).

    Returns a CheckRow of the two sides.  The verdict uses the
    equivalent 1 - q^(1/n) >= ln(pi n / 2) / (2 n), in the stable expm1
    form.
    """
    n = integer(n, "n")
    q = _q(n)
    one_minus = -math.expm1(math.log(q) / n)
    return CheckRow(one_minus ** -0.5,
                    math.sqrt(2.0 * n / math.log(math.pi * n / 2.0)),
                    one_minus >= math.log(math.pi * n / 2.0) / (2.0 * n))


def smoothness_check(law, rho, tol):
    """smoothness_ratio(law, rho) against its limit alpha = 1 - beta/n.

    Returns a CheckRow(ratio, alpha) that passes when
    |ratio - alpha| <= tol, a finite number >= 0.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError("tol must be a finite number >= 0, got %r" % (tol,))
    ratio = smoothness_ratio(law, rho)
    alpha = smoothness_alpha(law.cap.n, law.beta)
    return CheckRow(ratio, alpha, abs(ratio - alpha) <= tol)


def delta_eps_sandwich(n, beta, sigma, H):
    """delta_eps at eps = alpha/2 against its closed-form sandwich.

    The sandwich is   q * X^(2/alpha) <= delta_eps <= X^(2/alpha)
    with q = 2/(pi n) and X = (1/H) sqrt(1 - q^(1/n)); both bounds are
    sigma-free.  Returns the CheckRows (lower, upper), each
    CheckRow(delta_eps, bound, verdict).  The verdicts compare logs,
    within SLACK max(1, |log bound|).  Nothing is asserted: the lower
    bound genuinely fails for sigma = 1 at small n, and callers decide
    how to treat that.
    """
    n = integer(n, "n")
    beta, sigma = check_beta(n, beta), check_sigma(sigma)
    H = _check_H(H)
    alpha = 1.0 - beta / n
    eps = 0.5 * alpha
    rho = rho_eps(n, beta, sigma, H, eps)
    log_value = log_cap_integral(n, rho) - log_cap_integral(n, sigma)
    q = _q(n)
    log_x = math.log(1.0 / H) + 0.5 * math.log(-math.expm1(math.log(q) / n))
    log_upper = (2.0 / alpha) * log_x
    log_lower = math.log(q) + log_upper
    tol_lo = SLACK * max(1.0, abs(log_lower))
    tol_hi = SLACK * max(1.0, abs(log_upper))
    value = math.exp(log_value)
    lower = CheckRow(value, math.exp(log_lower),
                     log_value >= log_lower - tol_lo)
    upper = CheckRow(value, math.exp(log_upper),
                     log_value <= log_upper + tol_hi)
    return lower, upper


def t_eps_exceeds_t0(n, d, sigma, beta, H):
    """CheckRow(t_eps, t0_log, t_eps > t0_log): the boosted threshold
    against the exponential-form t0."""
    alpha = smoothness_alpha(n, beta)
    delta = delta_eps(n, beta, sigma, H, 0.5 * alpha)
    lhs, rhs = t_eps(n, d, sigma, delta), t0_log(n, d, sigma)
    return CheckRow(lhs, rhs, lhs > rhs)


@dataclass(frozen=True)
class BoostParams:
    """One point of the boosting parameter grid."""
    n: int
    beta: float
    sigma: float
    H: float
    eps: float

    def __post_init__(self):
        integer(self.n, "n")
        check_beta(self.n, self.beta)
        check_sigma(self.sigma)
        _check_H(self.H)
        _check_eps(self.n, self.beta, self.eps)

    def rho(self):
        return rho_eps(self.n, self.beta, self.sigma, self.H, self.eps)


def default_grid(n=None, beta=None, sigma=None, H=None, eps=None):
    """The boosting parameter grid, as a list of BoostParams in
    (n, beta, H, sigma, eps) order: the 648 points of the DEFAULT_*
    axes, beta running over fractions of n and eps over fractions of
    alpha = 1 - beta/n.  An axis given a value collapses to it.  n is
    checked before the fractions divide by it; BoostParams checks every
    point, so a pin outside its domain raises ValueError."""
    ns = DEFAULT_N if n is None else (integer(n, "n"),)
    hs = DEFAULT_H if H is None else (H,)
    sigmas = DEFAULT_SIGMA if sigma is None else (sigma,)
    grid = []
    for k in ns:
        for b in ([f * k for f in DEFAULT_BETA_FRACTIONS] if beta is None
                  else (beta,)):
            alpha = 1.0 - b / k
            for h in hs:
                for s in sigmas:
                    for e in ([f * alpha for f in DEFAULT_EPS_FRACTIONS]
                              if eps is None else (eps,)):
                        grid.append(BoostParams(n=k, beta=b, sigma=s, H=h,
                                                eps=e))
    return grid


def ball_maximizer_check(law, shells, slack=1e-12):
    """Among unions of radial shells of fixed uniform mass, the centered
    ball carries the most law mass.

    shells is an iterable of disjoint (lo, hi) intervals inside
    [0, sigma].  The uniform mass nu(S) and the law mass mu(S) of their
    union are sums of radial CDF differences, from uniform_law(law.cap)
    and from the law; the ball B(rho) of equal uniform mass has
    rho = the uniform law's inverse_radial_cdf(nu(S)), and its law mass
    is the law's radial CDF at rho.  Returns True when
    mu(S) <= mu(B(rho)) + slack.

    The one checker that returns a bool rather than a CheckRow, and the
    one that keeps a slack keyword: the sweep gates of
    bench/workloads.py call all() on its results and pass slack=1e-12.
    """
    sigma = law.cap.sigma
    pairs = [(float(lo), float(hi)) for lo, hi in shells]
    for lo, hi in pairs:
        if not (0.0 <= lo < hi <= sigma):
            raise ValueError("shell (%g, %g) not inside [0, sigma]" % (lo, hi))
    ordered = sorted(pairs)
    for (_, hi_prev), (lo_next, _) in zip(ordered, ordered[1:]):
        if lo_next < hi_prev:
            raise ValueError("shells overlap")

    lo, hi = np.array(pairs).T
    uniform = uniform_law(law.cap)
    nu_s = float(np.sum(uniform.radial_cdf(hi) - uniform.radial_cdf(lo)))
    mu_s = float(np.sum(law.radial_cdf(hi) - law.radial_cdf(lo)))
    rho = uniform.inverse_radial_cdf(min(nu_s, 1.0))
    return bool(mu_s <= law.radial_cdf(rho) + slack)
