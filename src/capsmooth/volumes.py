"""Cap volumes on spheres and projective spaces.

The central quantity is the cap integral

    I_m(sigma) = int_0^sigma r^(m-1) (1 - r^2)^(-1/2) dr,      m > 0,

which equals (1/2) B(sigma^2; m/2, 1/2) in terms of the unnormalized
incomplete beta function.  The volume of a spherical cap of angular
radius arcsin(sigma) in S^n is O_{n-1} I_n(sigma), where O_n denotes
the volume of the unit n-sphere.

Everything here needs the incomplete beta at b = 1/2 only, so the
module holds one engine for it (_beta_tails): series on either side of
the crossover x = (a+1)/(a+5/2) and a continued fraction between, in
value or in log (finite far below the smallest positive double), with
array loops and plain-float loops at one point that give the same bits.
log_cap_integral, cap_integral, _betainc_half (the regularized
I_x(a, 1/2)), _vec_cap_integral (I_m at many radii), _betaincinv_half (a
bracketed Halley inverse) and _betaincinv_ratio (the inverse where I
underflows) all read it; _beta_half is B(a, 1/2) to 28 digits.
mpmath's 30-digit incomplete beta (cap_integral_mpmath) and the closed
forms of cap_integral_series stay apart from it, as cross-checks;
checks.sandwich_rows checks the sandwich of cap_integral_bounds.
Nothing here imports scipy; the tests use it and mpmath as oracles.
"""

import decimal
import functools
import math

import numpy as np

from ._args import integer

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
_EPS_DOUBLE = np.finfo(float).eps
# the largest x summed by the lower series: above it the continued
# fraction needs fewer steps
_SERIES_TOP = 0.75
# the most points that _beta_tails evaluates one at a time: the array
# loops cost 40-100 us on up to 16 points (0.4-0.9 ms in the continued
# fraction), the plain-float ones 5-10 us a point (2-core x86-64)
_SCALAR_CUT = 10
# the relative step below which the inverse's Halley iteration stops:
# the step after it would be far below an ulp
_INVERSE_STOP = 1e-9


# Bernoulli numbers B_2, ..., B_20 (numerator, denominator), and pi to
# 36 digits
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730),
              (7, 6), (-3617, 510), (43867, 798), (-174611, 330))
_PI = decimal.Decimal("3.14159265358979323846264338327950288")


def _log_ratio_coefs():
    """c_k = (2 - 2^(1-2k)) B_2k / ((2k - 1) 2k), at 28 digits: log
    Gamma(x + 1/2) - log Gamma(x) = log(x) / 2 - sum_k c_k x^(1-2k), the
    difference of the Stirling series at x + 1/2 and at x (Bernoulli
    polynomials at 1/2: B_2k(1/2) = (2^(1-2k) - 1) B_2k)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 28
        return tuple((2 - decimal.Decimal(2) ** (1 - 2 * k)) * num
                     / (den * (2 * k - 1) * 2 * k)
                     for k, (num, den) in enumerate(_BERNOULLI, 1))


_LOG_RATIO = _log_ratio_coefs()


@functools.lru_cache(maxsize=1024)
def _beta_half(a):
    """The complete beta B(a, 1/2) as a 28-digit Decimal, for a > 0.

    B(a, 1/2) = sqrt(pi) Gamma(a) / Gamma(a + 1/2).  The ratio
    Gamma(a) / Gamma(a + 1/2) is lifted by 28-digit products to
    x = a + j >= 12, where _LOG_RATIO's series in 1/x^2, ten terms,
    reaches about 1e-21:

        B(a, 1/2) = sqrt(pi / x) exp(sum_k c_k x^(1-2k))
                    prod_j (a + j + 1/2) / (a + j).

    No difference of two large log Gammas is formed, so every float
    taken from the result is rounded once.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 28
        half = decimal.Decimal(0.5)
        x = decimal.Decimal(a)
        num = den = decimal.Decimal(1)
        while x < 12:
            num *= x + half
            den *= x
            x += 1
        inv2 = 1 / (x * x)
        series = 0
        for c in reversed(_LOG_RATIO):
            series = series * inv2 + c
        return (_PI / x).sqrt() * (series / x).exp() * num / den


def _log_beta_half(a):
    """log B(a, 1/2), within about an ulp of B (from _beta_half)."""
    return math.log(float(_beta_half(float(a))))


@functools.lru_cache(maxsize=1024)
def _series_coefs(a, upper):
    """The ratios c_k, t_(k+1) = t_k z c_k, of the positive series below
    the crossover (z = x) or above it (z = w), as an array and a list:
    enough for the region's largest z, widened above for x and w rounded
    apart (see _positive_series)."""
    if upper:
        def ratio(k):
            return (a + 0.5 + k) / (1.5 + k)
        zmax = (1.0 - (a + 1.0) / (a + 2.5)) * (1.0 + 1e-6)
    else:
        def ratio(k):
            return (k + 0.5) * (a + k) / ((k + 1.0) * (a + k + 1.0))
        zmax = _SERIES_TOP
    count = 32
    while True:
        coefs = ratio(np.arange(float(count)))
        past = np.flatnonzero(np.cumprod(zmax * coefs) < 0.25 * _EPS_DOUBLE)
        if past.size:
            coefs = coefs[:past[0] + 1]
            return coefs, coefs.tolist()
        count *= 2


def _positive_series(z, first, coefs):
    """sum_k t_k over an array z, with t_0 = first and t_(k+1) =
    t_k (z coefs[k]), for terms that only fall.

    The array's largest z fixes the number of terms: past it every term
    is below a quarter of eps times t_0, so below half an ulp of its
    point's total, which it and every later term leave unchanged.  Each
    point's terms are multiplied and added first to last, so no point's
    bits depend on the others.
    """
    if not z.size:
        return np.empty_like(z)
    past = np.flatnonzero(np.cumprod(float(np.max(z)) * coefs)
                          < 0.25 * _EPS_DOUBLE)
    coefs = coefs[:past[0] + 1]
    term = np.full_like(z, first)
    total = term.copy()
    factor = np.empty_like(z)
    for c in coefs:
        np.multiply(z, c, out=factor)
        term *= factor
        total += term
    return total


def _series_point(z, first, coefs):
    """_positive_series at one float z, up to the first term that leaves
    the total unchanged: every later one is smaller."""
    term = total = first
    for c in coefs:
        term *= z * c
        if total + term == total:
            break
        total += term
    return total


def _floor(v):
    """v, or _FPMIN where |v| is below it: Lentz's guard against 0."""
    if isinstance(v, np.ndarray):
        return np.where(np.abs(v) < _FPMIN, _FPMIN, v)
    return _FPMIN if abs(v) < _FPMIN else v


def _lentz(a, x):
    """The modified Lentz steps of the continued fraction
    F = 2F1(a + 1/2, 1; a + 1; x), at a float x or over an array: yields
    F and whether it has converged after each step, so the caller takes
    each point's F at its own convergence."""
    c = 1.0
    d = 1.0 / _floor(1.0 - (a + 0.5) / (a + 1.0) * x)
    h = d
    for m in range(1, _MAXIT + 1):
        m2 = 2 * m
        for coef in (m * (0.5 - m) / ((a - 1.0 + m2) * (a + m2)),
                     -(a + m) * (a + 0.5 + m) / ((a + m2) * (a + 1.0 + m2))):
            aa = coef * x
            d = 1.0 / _floor(1.0 + aa * d)
            c = _floor(1.0 + aa / c)
            delta = d * c
            h = h * delta
        yield h, abs(delta - 1.0) < _EPS
    raise RuntimeError("incomplete beta continued fraction did not converge "
                       "(a=%g)" % (a,))


def _finish(a, region, w, power, part, log):
    """A region's tail from its sum, by numpy operations that act alike
    on floats and arrays; see _beta_tails."""
    if region == 0:
        return power + np.log(part) if log else power * part
    if region == 1:
        return (power + np.log(np.sqrt(w) * part / a) if log
                else power * np.sqrt(w) * part / a)
    tail = 2.0 * np.sqrt(w) * (np.exp(power) if log else power) * part
    if log:
        return _log_beta_half(a) + np.log1p(-tail / float(_beta_half(a)))
    return tail


def _beta_tails(a, x, w, power, log=False):
    """One tail of the incomplete beta B(x; a, 1/2) at each point, from
    arrays of x, w = 1 - x and power = x^a, each as exact as the caller
    has them; returns the tails and which points hold the upper one.

    Below the crossover x = (a+1)/(a+5/2) the lower tail is x^a S, with
    the positive series S = sum_k c_k x^k / (a + k), c_k = (1/2)_k / k!,
    for x <= _SERIES_TOP and S = sqrt(w) F / a, F from _lentz, above.
    Past it the upper tail B(a, 1/2) - B(x; a, 1/2) is 2 w^(1/2) x^a G,
    G = 2F1(a+1/2, 1; 3/2; w) a positive series.  Tails below the double
    range come out 0.  With log, power holds log x^a and the result is
    log B(x; a, 1/2), which stays finite: log x^a + log S below the
    crossover, log B + log1p(-tail / B) above.  At most _SCALAR_CUT
    points go one by one through _beta_tail, for the same bits without
    the fixed cost of numpy calls.
    """
    if x.size <= _SCALAR_CUT:
        pairs = [_beta_tail(a, *point, log) for point in
                 zip(x.tolist(), w.tolist(), power.tolist())]
        return (np.array([tail for tail, _ in pairs], dtype=float),
                np.array([top for _, top in pairs], dtype=bool))
    top = x >= (a + 1.0) / (a + 2.5)
    low = np.flatnonzero((x <= _SERIES_TOP) & ~top)
    mid = np.flatnonzero((x > _SERIES_TOP) & ~top)
    high = np.flatnonzero(top)
    fraction = np.empty(mid.size)
    pending = np.ones(mid.size, dtype=bool)
    steps = _lentz(a, x[mid])
    while pending.any():
        h, done = next(steps)
        fraction[pending & done] = h[pending & done]
        pending &= ~done
    parts = (_positive_series(x[low], 1.0 / a, _series_coefs(a, False)[0]),
             fraction,
             _positive_series(w[high], 1.0, _series_coefs(a, True)[0]))
    tail = np.empty_like(x)
    for region, (idx, part) in enumerate(zip((low, mid, high), parts)):
        tail[idx] = _finish(a, region, w[idx], power[idx], part, log)
    return tail, top


def _beta_tail(a, x, w, power, log=False):
    """_beta_tails at one point of floats: a float and a bool."""
    top = x >= (a + 1.0) / (a + 2.5)
    if top:
        region, part = 2, _series_point(w, 1.0, _series_coefs(a, True)[1])
    elif x <= _SERIES_TOP:
        region, part = 0, _series_point(x, 1.0 / a,
                                        _series_coefs(a, False)[1])
    else:
        region, part = 1, next(h for h, done in _lentz(a, x) if done)
    return float(_finish(a, region, w, power, part, log)), top


def _betainc_half(a, x, upper=False):
    """The regularized incomplete beta I_x(a, 1/2) for a > 0 and x in
    [0, 1], an array or a scalar, from _beta_tails.  With upper=True the
    argument is w = 1 - x and the result is the upper tail
    I_w(1/2, a) = 1 - I_{1-w}(a, 1/2), accurate where it is small.
    x^a is pow of whichever of x and w is exact, from log1p(-w) when
    only w is.
    """
    v = np.asarray(x, dtype=float)
    shape = v.shape
    v = v.ravel()
    if upper:
        w, x = v, 1.0 - v
    else:
        x, w = v, 1.0 - v
    power = np.power(x, a)
    if upper:
        inexact = np.flatnonzero(w < 0.5)
        power[inexact] = np.exp(a * np.log1p(-w[inexact]))
    tail, top = _beta_tails(a, x, w, power)
    out = tail * float(1 / _beta_half(float(a)))
    out = np.where(top != upper, 1.0 - out, out)
    if not shape:
        return float(out[0])
    return out.reshape(shape)


def _betaincinv_half(a, y, upper=False):
    """x in [0, 1] with I_x(a, 1/2) = y, for an array y in [0, 1]; with
    upper=True, the w with I_w(1/2, a) = y (_betainc_half's upper tail).
    A root below the double range comes out 0.

    Bracketed Halley iteration on log I in log x, from the leading
    terms I ~ x^p / (p B) and 1 - I ~ (1 - x)^q / (q B), with p, q the
    tail's parameters: in those variables the tail is nearly linear.  A
    step that leaves the bracket bisects it instead.  A point stops
    after a step below _INVERSE_STOP relative, since the next step would
    be far below an ulp, or when its bracket closes, so its bits do not
    depend on the other points.
    """
    y = np.asarray(y, dtype=float)
    shape = y.shape
    y = y.ravel()
    p, q = (0.5, a) if upper else (a, 0.5)
    log_beta = _log_beta_half(a)
    out = np.zeros_like(y)
    out[y >= 1.0] = 1.0
    idx = np.flatnonzero((y > 0.0) & (y < 1.0))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        # the leading terms of both tails overshoot the root, so the
        # start is the lesser of the two (the far one where it is in
        # (0, 1)); a start that underflows marks a root below the double
        # range, which stays 0
        x = np.exp((np.log(y[idx] * p) + log_beta) / p)
        far = -np.expm1((np.log1p(-y[idx]) + math.log(q) + log_beta) / q)
        x = np.where((far > 0.0) & (far < x), far, x)
        x = np.where(x < 1.0, x, 0.5)
        idx, x = idx[x > 0.0], x[x > 0.0]
        target = y[idx]
        lo = np.zeros_like(x)
        hi = np.ones_like(x)
        for _ in range(_MAXIT):
            if not idx.size:
                return out.reshape(shape)
            tail = _betainc_half(a, x, upper)
            lo = np.where(tail < target, x, lo)
            hi = np.where(tail > target, x, hi)
            # in u = log x: g = log(I / y), taken of the ratio, which is
            # near 1, so it does not carry the rounding of log y and
            # log I; g' = x^p (1 - x)^(q-1) / (B I) and
            # g'' = g' (p + (1 - q) x / (1 - x) - g'); Halley's step
            g = np.log(tail / target)
            slope = np.exp(p * np.log(x) + (q - 1.0) * np.log1p(-x)
                           - log_beta) / tail
            curve = slope * (p + (1.0 - q) * x / (1.0 - x) - slope)
            step = x * np.expm1(-2.0 * g * slope
                                / (2.0 * slope * slope - g * curve))
            new = x + step
            # a step too small to leave the root stands, even where it
            # rounds onto a bracket end
            small = np.abs(step) <= _INVERSE_STOP * x
            new = np.where(small | ((lo < new) & (new < hi)), new,
                           0.5 * (lo + hi))
            done = small | (hi - lo <= 2.0 * _EPS_DOUBLE * hi)
            x = new
            if np.any(done):
                out[idx[done]] = x[done]
                keep = ~done
                idx, x, lo, hi = idx[keep], x[keep], lo[keep], hi[keep]
                target = target[keep]
    raise RuntimeError("incomplete beta inverse did not converge (a=%g)"
                       % (a,))


def _betaincinv_ratio(a, q):
    """x / q for the x with I_x(a, 1/2) = q^a, over an array q where q^a
    is below the normal range.  There B(x; a, 1/2) = x^a S(x), with S
    the power-free factor of _beta_tails (its log output at log x^a =
    0), so x = q exp((log B(a, 1/2) - log S(x)) / a): a fixed point,
    iterated from S(0) = 1/a, that contracts by about x / a per step.
    Rounding can leave a point hopping between two adjacent doubles, so
    a point stops when its new iterate equals its last one or the one
    before it, and its bits do not depend on the other points."""
    log_beta = _log_beta_half(a)
    out = np.empty_like(q)
    idx = np.arange(q.size)
    x = q * math.exp((log_beta + math.log(a)) / a)
    before = np.full_like(x, np.nan)
    for _ in range(_MAXIT):
        log_s, _ = _beta_tails(a, x, 1.0 - x, np.zeros_like(x), log=True)
        ratio = np.exp((log_beta - log_s) / a)
        new = q[idx] * ratio
        done = (new == x) | (new == before)
        out[idx[done]] = ratio[done]
        keep = ~done
        idx, before, x = idx[keep], x[keep], new[keep]
        if not idx.size:
            return out
    raise RuntimeError("incomplete beta ratio did not converge (a=%g)"
                       % (a,))


def _check_m_sigma(m, sigma):
    if not (m > 0.0) or not math.isfinite(m):
        raise ValueError("m must be a positive finite real, got %r" % (m,))
    if not (0.0 <= sigma <= 1.0):
        raise ValueError("sigma must lie in [0, 1], got %r" % (sigma,))


@functools.lru_cache(maxsize=65536)
def _log_cap_integral_cached(m, sigma):
    log_b, _ = _beta_tail(0.5 * m, sigma * sigma,
                          (1.0 - sigma) * (1.0 + sigma), m * np.log(sigma),
                          log=True)
    return math.log(0.5) + log_b


def log_cap_integral(m, sigma):
    """log I_m(sigma), by the log output of the engine at one point
    (_beta_tail), with log sigma^m = m log sigma and 1 - sigma^2 =
    (1 - sigma)(1 + sigma): no underflow for large m.

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

    Exponentiates log_cap_integral (returns 0.0 if the value is below
    the double range).
    """
    lv = log_cap_integral(m, sigma)
    return math.exp(lv) if lv > -math.inf else 0.0


def cap_integral_mpmath(m, sigma):
    """I_m(sigma) = B(sigma^2; m/2, 1/2) / 2 by mpmath's incomplete beta
    at 30 digits, kept as an independent cross-check of cap_integral.

    mpmath sums a hypergeometric series at 30 digits, so this route
    shares no rounding with the engine behind cap_integral.
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
    """I_m(sigma) by elementary closed forms, in code apart from the
    engine behind cap_integral.  For sigma^2 <= 3/4 the series below is
    the engine's lower series too, so there it checks the code, not the
    expansion; past that, where the engine turns to a continued fraction
    and a series in 1 - sigma^2, and at sigma = 1, it is independent.

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
        k = integer(m, "m (the sigma = 1 ladder)")
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
    """I_m at many radii as an array: half the incomplete beta
    B(r^2; m/2, 1/2) of _beta_tails, from r^m and (1 - r)(1 + r), so
    neither rounds r^2 first.  Shared by the distribution samplers,
    where m never exceeds the ambient dimension.
    """
    r = np.asarray(r, dtype=float)
    shape = r.shape
    r = r.ravel()
    a = 0.5 * m
    power = np.power(r, m)
    tail, top = _beta_tails(a, r * r, (1.0 - r) * (1.0 + r), power)
    return 0.5 * np.where(top, float(_beta_half(float(a))) - tail,
                          tail).reshape(shape)


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
    n = integer(n, "n", least=0)
    half = 0.5 * (n + 1)
    return math.exp(math.log(2.0) + half * math.log(math.pi)
                    - math.lgamma(half))


def cap_measure(n, sigma):
    """Volume of a cap of projective radius sigma in S^n: O_{n-1} I_n(sigma)."""
    n = integer(n, "n")
    return sphere_volume(n - 1) * cap_integral(n, sigma)

