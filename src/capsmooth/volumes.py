"""Cap volumes on spheres and projective spaces.

The central quantity is the cap integral

    I_m(sigma) = int_0^sigma r^(m-1) (1 - r^2)^(-1/2) dr,      m > 0,

which equals (1/2) B(sigma^2; m/2, 1/2) in terms of the unnormalized
incomplete beta function.  The volume of a spherical cap of angular
radius arcsin(sigma) in S^n is O_{n-1} I_n(sigma), where O_n denotes
the volume of the unit n-sphere.

Two independent evaluation routes are provided: a continued-fraction
incomplete beta carried in log space (log_cap_integral and cap_integral,
for real m and for values far below the smallest positive double), and
mpmath's 30-digit hypergeometric-series incomplete beta
(cap_integral_mpmath, a cross-check).  cap_integral_series adds closed
forms as a third route.  The module holds evaluators only; the
sandwich of cap_integral_bounds is checked by checks.sandwich_rows.
"""

import functools
import math

import numpy as np
from scipy import special

__all__ = [
    "sphere_volume",
    "cap_integral",
    "cap_integral_mpmath",
    "log_cap_integral",
    "cap_integral_series",
    "cap_integral_bounds",
    "cap_measure",
]

_MAXIT = 500
_EPS = 3e-16
_FPMIN = 1e-300


def _betacf(a, b, x):
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge "
                       "(a=%g, b=%g, x=%g)" % (a, b, x))


def _log_inc_beta(a, b, x):
    """log of the unnormalized incomplete beta B(x; a, b).

    Uses the continued fraction directly when x is below the standard
    crossover (a+1)/(a+b+2), otherwise evaluates the complementary tail
    and subtracts from the complete beta in log space.  Returns a Python
    float on every branch, so verdicts computed from it are bools.
    """
    if x == 0.0:
        return -math.inf
    if x < (a + 1.0) / (a + b + 2.0):
        return (a * math.log(x) + b * math.log1p(-x) - math.log(a)
                + math.log(_betacf(a, b, x)))
    lbeta = float(special.betaln(a, b))
    if x == 1.0:
        return lbeta
    log_tail = (a * math.log(x) + b * math.log1p(-x) - math.log(b)
                + math.log(_betacf(b, a, 1.0 - x)))
    # B(x) = B - tail; the tail is below B/2 on this branch.
    return lbeta + math.log1p(-math.exp(log_tail - lbeta))


def _check_m_sigma(m, sigma):
    if not (m > 0.0) or not math.isfinite(m):
        raise ValueError("m must be a positive finite real, got %r" % (m,))
    if not (0.0 <= sigma <= 1.0):
        raise ValueError("sigma must lie in [0, 1], got %r" % (sigma,))


@functools.lru_cache(maxsize=65536)
def _log_cap_integral_cached(m, sigma):
    return math.log(0.5) + _log_inc_beta(0.5 * m, 0.5, sigma * sigma)


def log_cap_integral(m, sigma):
    """log I_m(sigma), exact in log space (no underflow for large m).

    Memoized: the grid checkers hit the same (m, sigma) pairs many
    thousands of times.
    """
    m = float(m)
    sigma = float(sigma)
    _check_m_sigma(m, sigma)
    if sigma == 0.0:
        return -math.inf
    return _log_cap_integral_cached(m, sigma)


def cap_integral(m, sigma):
    """I_m(sigma) for real m > 0 and sigma in [0, 1].

    Evaluates the log-space continued fraction and exponentiates
    (returns 0.0 if the value is below the double range).
    """
    lv = log_cap_integral(m, sigma)
    return math.exp(lv) if lv > -math.inf else 0.0


def cap_integral_mpmath(m, sigma):
    """I_m(sigma) = B(sigma^2; m/2, 1/2) / 2 by mpmath's incomplete beta
    at 30 digits, kept as an independent cross-check of cap_integral.

    mpmath sums a hypergeometric series, so this route shares nothing
    with scipy or with the continued fraction behind cap_integral.
    """
    # imported here: mpmath stays out of every CLI start
    import mpmath

    m = float(m)
    sigma = float(sigma)
    _check_m_sigma(m, sigma)
    with mpmath.workdps(30):
        x = mpmath.mpf(sigma) ** 2
        return float(mpmath.betainc(mpmath.mpf(m) / 2, 0.5, 0, x) / 2)


def cap_integral_series(m, sigma):
    """I_m(sigma) by elementary closed forms, independent of the
    continued fraction.

    For sigma < 1, expand (1 - r^2)^(-1/2) = sum_k c_k r^(2k) with
    c_k = binom(2k, k) / 4^k and integrate term by term:

        I_m(sigma) = sum_k c_k sigma^(m + 2k) / (m + 2k).

    All terms are positive, so there is no cancellation; the tail is
    geometric with ratio sigma^2.  At sigma = 1 the series is unusable,
    but for integer m the classical ladder
    I_m(1) = (m-2)/(m-1) I_{m-2}(1) from I_1(1) = pi/2, I_2(1) = 1
    is exact (every step is a positive product).

    Raises RuntimeError for sigma within about 1e-4 of 1 (too many
    terms); relative accuracy degrades to roughly 1e-13 as sigma
    approaches that edge.  This is a cross-check oracle, not the
    production route.
    """
    m = float(m)
    sigma = float(sigma)
    _check_m_sigma(m, sigma)
    if sigma == 1.0:
        if int(m) != m:
            raise ValueError("the sigma = 1 ladder needs integer m")
        k = int(m)
        val = 0.5 * math.pi if k % 2 == 1 else 1.0
        for j in range(3 if k % 2 == 1 else 4, k + 1, 2):
            val *= (j - 2.0) / (j - 1.0)
        return val
    if sigma == 0.0:
        return 0.0
    s2 = sigma * sigma
    coeff = 1.0
    power = sigma ** m
    total = power / m
    k = 0
    while True:
        k += 1
        coeff *= (2.0 * k - 1.0) / (2.0 * k)
        power *= s2
        term = coeff * power / (m + 2.0 * k)
        total += term
        if term < 1e-17 * total:
            return total
        if k > 2 * 10 ** 5:
            raise RuntimeError("series for I_m did not converge "
                               "(m=%g, sigma=%g)" % (m, sigma))


def _vec_cap_integral(m, r):
    """I_m at many radii as an array; fine for moderate m.

    Uses the regularized incomplete beta from scipy times the complete
    beta constant.  Shared by the distribution samplers, where m never
    exceeds the ambient dimension.
    """
    r = np.asarray(r, dtype=float)
    const = 0.5 * math.exp(special.betaln(0.5 * m, 0.5))
    return const * special.betainc(0.5 * m, 0.5, np.square(r))


def cap_integral_bounds(m, sigma):
    """Elementary sandwich for I_m(sigma): returns (lower, upper).

    lower = sigma^m / m and
    upper = min((1 - sigma^2)^(-1/2), sqrt(pi m / 2)) * sigma^m / m.

    The lower bound always holds.  The upper bound fails in a region
    near sigma = 1 (for every m at sigma = 1 exactly);
    checks.sandwich_rows measures rather than assumes validity there.
    """
    m = float(m)
    sigma = float(sigma)
    _check_m_sigma(m, sigma)
    base = sigma ** m / m
    if sigma < 1.0:
        cap = min(1.0 / math.sqrt(1.0 - sigma * sigma),
                  math.sqrt(0.5 * math.pi * m))
    else:
        cap = math.sqrt(0.5 * math.pi * m)
    return base, cap * base


def sphere_volume(n):
    """Volume O_n of the unit sphere S^n in R^{n+1}.

    O_n = 2 pi^((n+1)/2) / Gamma((n+1)/2).  Satisfies
    O_{n-1} I_n(1) = O_n / 2 (half-sphere as a cap of full radius).
    """
    if int(n) != n or n < 0:
        raise ValueError("n must be a nonnegative integer")
    n = int(n)
    half = 0.5 * (n + 1)
    return math.exp(math.log(2.0) + half * math.log(math.pi)
                    - math.lgamma(half))


def cap_measure(n, sigma):
    """Volume of a cap of projective radius sigma in S^n: O_{n-1} I_n(sigma)."""
    if int(n) != n or n < 1:
        raise ValueError("n must be a positive integer")
    return sphere_volume(int(n) - 1) * cap_integral(n, sigma)

