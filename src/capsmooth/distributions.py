"""Perturbation laws on projective caps.

A cap B(a, sigma) is the set of projective points within projective
distance sigma of a center a.  The laws handled here have densities,
with respect to the uniform probability measure on the cap, of the form

    f(x) = c * r^(-beta) * h(r),        r = d(x, a),

where 0 <= beta < n is the pole exponent, h is a continuous radial
factor with h(0) > 0 normalized so that

    int_0^sigma h(r) r^(n-beta-1) (1-r^2)^(-1/2) dr = I_{n-beta}(sigma),

and c = I_n(sigma) / I_{n-beta}(sigma).  The full radial weight
g(r) = c r^(-beta) h(r) is required to be nonincreasing.  beta = 0 with
h identically one is exactly the uniform law on the cap.

Every profile is a table of linear segments h = alpha_i + gamma_i r; the
constant one is the single segment h = 1 on [0, sigma], and a profile's
report label, constant or tabulated, is read off its table.  That table
is the only source of a law's radial mass, and _segment_masses alone
turns it into segment masses, for normalize_profile and the law alike:
the radial CDF is a closed-form sum of cap-integral increments over it,
so no quadrature enters, and its log carries the first segment in log
space, so deep tails do not underflow.  Sampling draws the radius, then
a uniform tangent direction.  Radii come from one kernel per law: a
piecewise-Chebyshev inverse of the regularized incomplete beta function,
fitted to the inverse volumes._betaincinv_half and certified on the
first use of any law with its m = n - beta and its mass
betainc(m/2, 1/2, sigma^2), then shared by all of them.  Each fit keeps
the lowest degree whose coefficient table still passes its certificate
(2 to 4 for the kernels at sigma <= 1/2), so a point costs only the
Clenshaw steps the certificate needs; a branch whose fit misses, and
every point of a law with n - beta above 2 _FIT_MAX_A, where no kernel
is fitted, is inverted by the oracle it was certified against.

One locator, AdversarialLaw._locate, takes a probability p to the
segment that holds the mass p times the total and to the mass left in
that segment, for the inverse of the radial CDF and the sampler alike.
One map then takes that mass to a radius on the segment: holding h at
its mean over the segment makes the segment's mass a cap-integral
increment, which the kernel inverts, and the radius is clipped to the
segment.  Where h is flat that is the exact inverse, so a law of
constant profile is sampled by inverse transform.  Where h slopes, the
same map spreads the kernel's law r^(m-1) (1 - r^2)^(-1/2) over the
segment, so the sampler draws a radius from it and keeps it with
probability h(r) / max h over the segment (von Neumann's rejection
method), which samples the law exactly; and the inverse of the radial
CDF refines the map's radius by a safeguarded Newton iteration on the
segment mass.
"""

import functools
import math
import threading

import numpy as np

from ._args import check_beta, check_sigma, integer
from .geometry import geodesic_point, proj_distance, tangent_direction
from .volumes import (_beta_half, _betainc_half, _betaincinv_half,
                      _betaincinv_ratio, _vec_cap_integral, log_cap_integral)

__all__ = [
    "Cap",
    "RadialProfile",
    "constant_profile",
    "normalize_profile",
    "AdversarialLaw",
    "uniform_law",
]

# Newton iterations on a segment; points that stop moving leave early
_NEWTON_ITERS = 60
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny

# Chebyshev kernel for the inverse of betainc(a, 1/2, .): the degree, the
# piece count and the certificate's bound on the relative error in x
_CHEB_DEGREE = 12
_CHEB_PIECES = 32
_CHEB_TOL = 64 * _EPS
# a kernel's table keeps the shortest prefix whose relative error in x
# stays within both _CHEB_TOL and _PREFIX_BUDGET / a (see
# _BetaincInverse._branch).  F magnifies that error by about
# a / sqrt(1 - r^2), so the budget holds the radial residual below
# 1e-12 wherever a prefix shorter than the full table passes it;
# _CHEB_TOL alone would let m >= 500 pass 1e-12 once the full degree's
# spare accuracy is cut.  A full table passes whatever its error below
# _CHEB_TOL, so the budget does not bound it: at sigma = 0.99, beta = 0
# the largest residual over 16384 uniforms is 9.5e-14, 3.2e-13 and
# 6.7e-13 at n = 64, 100 and 128, and 1.13e-12 at n = 150, until the
# branch misses the certificate (n = 170) and Halley serves every point
_PREFIX_BUDGET = 1e-13
# the largest a = m/2 that gets a kernel fit.  F magnifies the fit's
# error by about m/2 near the top of the law, so the radial residual
# max |F(r) - p| grows with m: at sigma = 0.5 it is 3.4e-13, 7.7e-13,
# 9.6e-13 and 1.15e-12 at m = 300, 600, 700 and 1000, against the 1e-12
# that sampling asks.  Above the cut Halley inverts every point (below
# 1e-13 there, at about twice the kernel's cost per point)
_FIT_MAX_A = 320.0


class _ChebyshevPieces:
    """Piecewise Chebyshev interpolant on [lo, hi], cut into `pieces`
    equal pieces, of degree _CHEB_DEGREE through the Chebyshev points of
    the first kind on every piece; coef[j] holds the degree-j
    coefficient of every piece.  The coefficients come from the discrete
    cosine sum of the values at the nodes; the table may keep only a
    prefix of them (a lower degree, see _BetaincInverse._branch)."""

    def __init__(self, lo, hi, pieces):
        self.lo = lo
        self.scale = pieces / (hi - lo)
        self.pieces = pieces
        self.coef = None

    def points(self, theta):
        """The points at angles theta on every piece, (len(theta),
        pieces)."""
        offset = (np.arange(self.pieces)
                  + 0.5 * (1.0 + np.cos(theta))[:, None])
        return self.lo + offset / self.scale

    def interpolate(self, values):
        n = _CHEB_DEGREE + 1
        theta = np.pi * (np.arange(n) + 0.5) / n
        self.coef = (2.0 / n) * np.cos(np.outer(np.arange(n), theta)) @ values
        self.coef[0] *= 0.5

    def __call__(self, v):
        """Clenshaw's recurrence, one gathered coefficient per step.  The
        table may have any number of rows, one included."""
        t = v - self.lo
        t *= self.scale
        k = np.clip(t.astype(np.intp), 0, self.pieces - 1)
        # t = 2 (u - k) - 1 on the piece, in place
        t -= k
        t *= 2.0
        t -= 1.0
        coef = self.coef
        b1 = coef[-1].take(k)
        if len(coef) == 1:
            return b1
        if len(coef) > 2:
            # b_j = t2 b_{j+1} - b_{j+2} + c_j in three rotating buffers;
            # the first step has b_{j+2} = 0, and subtracts nothing
            t2 = 2.0 * t
            b2, b1 = b1, t2 * b1
            b1 += coef[-2].take(k)
            b0 = np.empty_like(t)
            for c in coef[-3:0:-1]:
                np.multiply(t2, b1, out=b0)
                b0 -= b2
                b0 += c.take(k)
                b1, b2, b0 = b0, b1, b2
            b1 *= t
            b1 -= b2
        else:
            b1 *= t
        b1 += coef[0].take(k)
        return b1


class _BetaincInverse:
    """x with betainc(a, 1/2, x) = y, for y in [0, top], by piecewise
    Chebyshev interpolation (Trefethen, Approximation Theory and
    Approximation Practice, SIAM 2013).

    Near 0, y^(1/a) = x phi(x) with phi analytic and positive, so
    x = q psi(q) in q = y^(1/a) with psi analytic and positive: the
    pole is factored out and x keeps its relative accuracy in the deep
    tail.  Below y = 2^-53, q is y^(1/a) with 1/a in two parts, so the
    rounding of 1/a does not grow with |ln y|.  Near 1, 1 - y = sqrt(1 -
    x) times a series in 1 - x, so x = 1 - w chi(w) in w = (1 - y)^2,
    which keeps 1 - x accurate where the slope of the radial CDF blows
    up at sigma = 1.  The lower branch runs up to y = 1/2, or further if
    x is still below 1/2 there; the upper branch exists only when top
    lies beyond that split.  The build-time certificate evaluates a fit
    through _lower_x and _upper_x, the maps the kernel runs.  Node
    values and the certificate's reference values come from
    volumes._betaincinv_half, a bracketed Halley iteration on the
    in-house incomplete beta that is solved for the nodes and the
    certificate points in one call, except where q^a is below the
    normal range: there psi comes from volumes._betaincinv_ratio, a
    fixed point on the same engine's log output.

    Each branch is fitted once, at _CHEB_PIECES pieces, and keeps the
    shortest prefix of its coefficients whose error stays within the
    certificate and within _PREFIX_BUDGET / a.  A branch that misses
    the certificate is None, and volumes._betaincinv_half itself
    inverts it, in the complement 1 - y on the upper branch, as the
    certificate does: within about one ulp of x, at several times the
    cost of the fit per point.  At sigma = 1 the lower branch misses
    from a = 32 on.  Above a = _FIT_MAX_A no branch is fitted: the
    certified 64 eps in x is then too coarse for the radial CDF, and
    Halley inverts every point.
    """

    def __init__(self, a, top):
        root = 1.0 / a
        self._a = a
        self.top = top
        self.split = min(top, max(0.5, _betainc_half(a, 0.5)))
        self._root = root
        # 1/a less its rounding: exact in integers, then rounded once
        num_a, den_a = float(a).as_integer_ratio()
        num_r, den_r = root.as_integer_ratio()
        self._root_lo = (den_a * den_r - num_r * num_a) / (num_a * den_r)

        def lower(nodes, between):
            # one inverse for the nodes and the points between, where q^a
            # is a normal double; below, from _betaincinv_ratio
            q = np.concatenate((nodes.ravel(), between.ravel()))
            y = q ** a
            under = y < _TINY
            x = np.zeros_like(q)
            x[~under] = _betaincinv_half(a, y[~under])
            cut = nodes.size
            with np.errstate(divide="ignore", invalid="ignore"):
                values = x[:cut] / self._lower_q(y[:cut])
            values[under[:cut]] = _betaincinv_ratio(a, q[:cut][under[:cut]])
            q, y, ref, under = q[cut:], y[cut:], x[cut:], under[cut:]
            ref_psi = _betaincinv_ratio(a, q[under])

            def error(fit):
                with np.errstate(divide="ignore", invalid="ignore"):
                    err = np.abs(self._lower_x(fit, y) - ref) / ref
                if ref_psi.size:
                    # no double y there: the fitted psi against the series
                    err[under] = np.abs(fit(q[under]) - ref_psi) / ref_psi
                return err
            return values.reshape(nodes.shape), error

        def upper(nodes, between):
            # the complement as the evaluation sees it: y = 1 - sqrt(w)
            # rounds, and 1 - y is then exact for y >= 1/2
            c = 1.0 - (1.0 - np.sqrt(nodes.ravel()))
            y = 1.0 - np.sqrt(between.ravel())
            w = _betaincinv_half(a, np.concatenate((c, 1.0 - y)), upper=True)
            values = (w[:c.size] / (c * c)).reshape(nodes.shape)
            ref = 1.0 - w[c.size:]
            return values, lambda fit: (np.abs(self._upper_x(fit, y) - ref)
                                        / ref)

        self._lower = self._upper = None
        if a > _FIT_MAX_A:
            return
        self._lower = self._branch(lower, 0.0, self.split ** root)
        if top > self.split:
            self._upper = self._branch(upper, (1.0 - top) ** 2,
                                       (1.0 - self.split) ** 2)

    def _branch(self, solve, lo, hi):
        """The branch's fit on [lo, hi], cut into _CHEB_PIECES pieces, or
        None if it misses its certificate: a relative error in x above
        _CHEB_TOL at the points midway (in angle) between the nodes and
        at the ends of the pieces.  solve(nodes, between) gives, from
        one call, the values at the nodes and a function that maps the
        fit to its relative error at the points between; both point
        arrays have one column per piece.

        The fit keeps the shortest prefix of its coefficient table, the
        lowest degree, that passes the same certificate at the same
        points with an error of at most the larger of _PREFIX_BUDGET / a
        (capped at _CHEB_TOL) and the full table's own; so each
        evaluation runs only as many Clenshaw steps as the certificate
        needs, and no node is solved again.  The coefficients of a
        smooth inverse fall off geometrically, so the kernels keep
        degree 2 to 4 at sigma <= 1/2; the degree rises as sigma nears 1
        and with m, to the full _CHEB_DEGREE at sigma = 0.99 from m = 64
        on."""
        n = _CHEB_DEGREE + 1
        theta = np.pi * (np.arange(n) + 0.5) / n
        between = np.pi * np.arange(n) / n
        fit = _ChebyshevPieces(lo, hi, _CHEB_PIECES)
        values, error = solve(fit.points(theta), fit.points(between))
        fit.interpolate(values)
        err = error(fit).max()
        # nan (an underflowed node) misses too
        if not err <= _CHEB_TOL:
            return None
        keep = max(err, min(_CHEB_TOL, _PREFIX_BUDGET / self._a))
        # the full table meets keep, which is at least its own error
        full = fit.coef
        for size in range(1, n + 1):
            fit.coef = full[:size]
            if error(fit).max() <= keep:
                return fit

    def _lower_q(self, y):
        q = y ** self._root
        if self._root_lo:
            deep = np.flatnonzero(y < 2.0 ** -53)
            deep = deep[y[deep] > 0.0]
            q[deep] *= 1.0 + self._root_lo * np.log(y[deep])
        return q

    def _lower_x(self, fit, y):
        if fit is None:
            return _betaincinv_half(self._a, y)
        q = self._lower_q(y)
        return q * fit(q)

    def _upper_x(self, fit, y):
        if fit is None:
            return 1.0 - _betaincinv_half(self._a, 1.0 - y, upper=True)
        w = np.square(1.0 - y)
        return 1.0 - w * fit(w)

    def __call__(self, y):
        # a y above top (rounding at the end of a segment) gives a
        # radius that is clipped to its segment anyway
        y = np.minimum(y, self.top)
        if self.top <= self.split:
            return self._lower_x(self._lower, y)
        x = np.empty_like(y)
        low = y <= self.split
        x[low] = self._lower_x(self._lower, y[low])
        x[~low] = self._upper_x(self._upper, y[~low])
        return x


# every _BetaincInverse built so far, by (a, top): laws with the same
# m = n - beta and the same mass betainc(m/2, 1/2, sigma^2) share one
_KERNELS = {}
_KERNELS_LOCK = threading.Lock()


def _kernel(a, top):
    """The inverse of betainc(a, 1/2, .) on [0, top], built on the first
    request for (a, top) and shared by every later one.  Builds run
    under one lock, so threads that ask for the same kernel at once
    build it once."""
    key = (float(a), float(top))
    with _KERNELS_LOCK:
        kernel = _KERNELS.get(key)
        if kernel is None:
            kernel = _KERNELS[key] = _BetaincInverse(*key)
    return kernel


class Cap:
    """Projective cap: unit center a in R^{n+1} and radius sigma in (0, 1]."""

    def __init__(self, center, sigma):
        center = np.asarray(center, dtype=float)
        if center.ndim != 1 or center.shape[0] < 2:
            raise ValueError("center must be a vector in R^{n+1}, n >= 1")
        nrm = np.linalg.norm(center)
        if not abs(nrm - 1.0) <= 1e-8:
            raise ValueError("center must be a unit vector (||a|| = %.17g)"
                             % nrm)
        self.center = center / nrm
        self.sigma = check_sigma(sigma)

    @property
    def n(self):
        """Dimension of the ambient projective space."""
        return self.center.shape[0] - 1

    def __repr__(self):
        return "Cap(n=%d, sigma=%g)" % (self.n, self.sigma)


class RadialProfile:
    """Radial factor h of a cap law: piecewise linear between nodes
    r_grid that cover [0, sigma], with values h_grid.  H is the sup of
    h, attained at a node; kind, a label for reports, is read off the
    table (see below).
    """

    def __init__(self, r_grid, h_grid, sigma):
        r_grid = np.asarray(r_grid, dtype=float)
        h_grid = np.asarray(h_grid, dtype=float)
        if r_grid.ndim != 1 or r_grid.shape != h_grid.shape or len(r_grid) < 2:
            raise ValueError("profile needs matching 1-d node arrays")
        if not np.all(np.diff(r_grid) > 0.0):
            raise ValueError("profile nodes must be strictly increasing")
        if not (abs(r_grid[0]) <= 1e-12
                and abs(r_grid[-1] - sigma) <= 1e-12 * sigma):
            raise ValueError("profile nodes must cover [0, sigma] exactly")
        if not np.all(np.isfinite(h_grid)):
            raise ValueError("profile values must be finite")
        if np.any(h_grid < 0.0):
            raise ValueError("profile values must be nonnegative")
        if h_grid[0] <= 0.0:
            raise ValueError("profile must be positive at r = 0")
        self.sigma = sigma
        self.r_grid = r_grid
        self.h_grid = h_grid
        self.H = float(np.max(h_grid))

    @property
    def kind(self):
        """"constant" for the table constant_profile builds, one segment
        with h = 1 at both ends, and "tabulated" for any other; no
        computation reads it."""
        return ("constant" if self.h_grid.tolist() == [1.0, 1.0]
                else "tabulated")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.interp(r, self.r_grid, self.h_grid)
        if r.ndim == 0:
            return float(out)
        return out


def constant_profile(sigma):
    """The profile h identically equal to one on [0, sigma] (already
    normalized): the single segment from (0, 1) to (sigma, 1)."""
    sigma = float(sigma)
    return RadialProfile([0.0, sigma], [1.0, 1.0], sigma)


def _require_mass(total, m, sigma, consequence):
    """Raise ArithmeticError when a radial mass total, in absolute I_m
    units, is below the normal double range: there it underflows or
    keeps too few bits to divide by."""
    if not total >= _TINY:
        raise ArithmeticError(
            "the radial mass I_%g(%g) of the cap is below the normal double "
            "range, so %s" % (m, sigma, consequence))


def _segment_masses(m, r_grid, h_grid):
    """The segment table of a profile for the exponent m: the cap
    integrals I_m and I_{m+1} at the nodes, the per-segment alpha, gamma
    with h(r) = alpha_i + gamma_i r, and the mass of each segment,
    alpha_i dI_m + gamma_i dI_{m+1}, its share of the integral of
    h(r) r^(m-1) (1-r^2)^(-1/2) in increments of the cap integrals over
    it: exact up to roundoff."""
    im = _vec_cap_integral(m, r_grid)
    im1 = _vec_cap_integral(m + 1.0, r_grid)
    gamma = np.diff(h_grid) / np.diff(r_grid)
    alpha = h_grid[:-1] - gamma * r_grid[:-1]
    return im, im1, alpha, gamma, alpha * np.diff(im) + gamma * np.diff(im1)


def normalize_profile(raw, n, beta, sigma, grid_points=1025):
    """Tabulate and rescale a raw radial factor into a valid profile.

    raw is either a callable r -> h(r) on [0, sigma], sampled on an
    equispaced grid of grid_points nodes (an integer of at least 2; a
    fraction raises ValueError, as a non-integral n does), or a (K, 2)
    array of (r, h) rows whose nodes must already cover [0, sigma].  The
    raw table must pass RadialProfile's checks.  The values are scaled
    by a single constant so the weighted integral of the piecewise-linear
    interpolant equals I_{n-beta}(sigma) (piecewise closed form, no
    quadrature), up to the rounding of the double segment masses that
    set the scale; that is measured in the tests, against 30-digit
    mpmath, not here.  Raises ArithmeticError when I_{n-beta}(sigma)
    is below the normal double range: the scale would lose its bits.
    """
    n = integer(n, "n")
    beta, sigma = check_beta(n, beta), check_sigma(sigma)
    if callable(raw):
        r_grid = np.linspace(0.0, sigma,
                             integer(grid_points, "grid_points", least=2))
        h_raw = np.asarray([float(raw(r)) for r in r_grid])
    else:
        table = np.asarray(raw, dtype=float)
        if table.ndim != 2 or table.shape[1] != 2:
            raise ValueError("expected a (K, 2) array of (r, h) rows")
        r_grid = table[:, 0].copy()
        h_raw = table[:, 1].copy()
    RadialProfile(r_grid, h_raw, sigma)  # validates raw
    r_grid[0] = 0.0
    r_grid[-1] = sigma

    m = n - beta
    target = float(_vec_cap_integral(m, sigma))
    _require_mass(target, m, sigma, "no profile can be normalized to it")
    total = float(np.sum(_segment_masses(m, r_grid, h_raw)[-1]))
    if not (total > 0.0):
        raise ValueError("raw profile integrates to zero")
    return RadialProfile(r_grid, h_raw * (target / total), sigma)


class AdversarialLaw:
    """Cap law with density c * r^(-beta) * h(r) against the uniform law.

    Construction validates the pole exponent (0 <= beta < n), profile
    compatibility, that the full radial weight g(r) = r^(-beta) h(r)
    is nonincreasing, exactly on each linear segment of the profile, and
    that the profile is normalized for this beta.  The normalization
    constant c = I_n(sigma) / I_{n-beta}(sigma) is computed in log space.
    """

    def __init__(self, cap, beta, profile=None):
        if profile is None:
            profile = constant_profile(cap.sigma)
        n = cap.n
        beta = check_beta(n, beta)
        if abs(profile.sigma - cap.sigma) > 1e-12 * cap.sigma:
            raise ValueError("profile radius %r does not match cap "
                             "radius %r" % (profile.sigma, cap.sigma))
        self.cap = cap
        self.beta = beta
        self.profile = profile
        self._m = n - beta
        self._log_i_n_sigma = log_cap_integral(n, cap.sigma)
        self._log_i_m_sigma = log_cap_integral(self._m, cap.sigma)
        self.c = math.exp(self._log_i_n_sigma - self._log_i_m_sigma)

        self._r_nodes = profile.r_grid
        (self._im_nodes, self._im1_nodes, self._alpha, self._gamma,
         seg) = _segment_masses(self._m, profile.r_grid, profile.h_grid)
        # dI_m per unit of each segment's mass: 1/h where h is flat, and
        # 0 on a segment of no mass, which is never drawn
        self._im_per_mass = np.divide(np.diff(self._im_nodes), seg,
                                      out=np.zeros_like(seg), where=seg > 0.0)
        self._mass = seg
        cum = np.concatenate(([0.0], np.cumsum(seg)))
        self._cdf_nodes = cum
        self._cdf_total = float(cum[-1])
        # equal buckets of mass, one per segment: _below[b] interior nodes
        # lie in the buckets before b.  The scale stays at most 2^1022,
        # so a total near the bottom of the double range cannot overflow
        # it: coarser buckets are still a monotone hint.  A total below
        # the normal range gets a table that nothing reads, since
        # inversion refuses that law
        count = len(seg)
        self._bucket_scale = np.float64(count) / max(self._cdf_total,
                                                     count * _TINY)
        bucket = np.minimum((cum[1:-1] * self._bucket_scale).astype(np.intp),
                            count - 1)
        self._below = np.searchsorted(bucket, np.arange(count + 1))
        # I_m(r) = _beta_const * betainc(m/2, 1/2, r^2)
        self._beta_const = float(_beta_half(0.5 * self._m) / 2)
        self._check_weight_monotone()
        self._check_mass()
        self._sloped = bool(np.any(self._gamma != 0.0))

    @property
    def H(self):
        return self.profile.H

    @functools.cached_property
    def _inverse(self):
        """The inverse of betainc(m/2, 1/2, .) on the law's mass, built
        on first use and shared, through _kernel, with every law of the
        same m and mass."""
        a = 0.5 * self._m
        return _kernel(a, _betainc_half(a, self.cap.sigma ** 2))

    def _check_weight_monotone(self):
        """Exact for piecewise-linear h = alpha_i + gamma_i r: the
        derivative of g = r^(-beta) h has the sign of
        -beta alpha_i + (1 - beta) gamma_i r, which is linear in r, so
        its sign at both ends of every segment decides the segment."""
        r = self._r_nodes
        ends = np.stack([r[:-1], r[1:]])
        beta, alpha, gamma = self.beta, self._alpha, self._gamma
        slope = -beta * alpha + (1.0 - beta) * gamma * ends
        size = beta * np.abs(alpha) + abs(1.0 - beta) * np.abs(gamma) * ends
        if np.any(slope > 1e-12 * size):
            raise ValueError("radial weight r^(-beta) h(r) is not "
                             "nonincreasing on [0, sigma]")

    def _check_mass(self):
        """The table must hold I_m(sigma), m = n - beta, within 1e-12
        relative, as normalize_profile leaves it (within 1.6e-13 over
        about 4300 laws with n up to 1000 and I_m(sigma) down to
        1e-302): the density's constant c, the sup H and the theorem a
        run is held to all read the table as normalized.  A law whose
        I_m(sigma) is below the normal double range is not checked."""
        target = math.exp(self._log_i_m_sigma)
        if target >= _TINY and not (abs(self._cdf_total - target)
                                    <= 1e-12 * target):
            raise ValueError(
                "profile is not normalized for beta = %g: its table holds "
                "%.6g times I_%g(%g); build it with normalize_profile"
                % (self.beta, self._cdf_total / target, self._m,
                   self.cap.sigma))

    def density(self, x):
        """Density at x relative to the uniform law on the cap.

        x is a unit vector (or an (N, k) batch).  Raises for points
        outside the cap; returns +inf at the center when beta > 0.
        """
        r = proj_distance(x, self.cap.center)
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(r_arr > self.cap.sigma * (1.0 + 1e-12)):
            raise ValueError("point lies outside the cap")
        with np.errstate(divide="ignore"):
            pole = np.power(r_arr, -self.beta) if self.beta > 0.0 \
                else np.ones_like(r_arr)
        out = self.c * pole * self.profile(r_arr)
        if np.isscalar(r):
            return float(out[0])
        return out

    def radial_cdf(self, rho):
        """P(d(x, a) <= rho) for x drawn from the law; scalar or array.

        Raises ArithmeticError when the law's radial mass I_m(sigma) is
        below the normal double range; log_radial_cdf serves such a law.
        """
        rho_arr = np.asarray(rho, dtype=float)
        scalar = rho_arr.ndim == 0
        rho_arr = np.atleast_1d(rho_arr)
        sigma = self.cap.sigma
        if not (np.all(rho_arr >= 0.0)
                and np.all(rho_arr <= sigma * (1.0 + 1e-12))):
            raise ValueError("rho must lie in [0, sigma]")
        _require_mass(self._cdf_total, self._m, sigma,
                      "the CDF is no ratio of doubles; log_radial_cdf serves "
                      "this law")
        rho_arr = np.minimum(rho_arr, sigma)
        out = self._radial_cdf_clipped(rho_arr)
        if scalar:
            return float(out[0])
        return out

    def _segment_mass(self, idx, rho):
        """Mass of segment idx below rho (closed form, alpha and gamma
        terms in cap-integral increments).  On a law with no sloped
        segment every gamma is 0, so the I_{m+1} term is skipped: it
        would add a zero, which leaves the bits of the sum."""
        mass = self._alpha[idx] * (_vec_cap_integral(self._m, rho)
                                   - self._im_nodes[idx])
        if not self._sloped:
            return mass
        im1_rho = _vec_cap_integral(self._m + 1.0, rho)
        return mass + self._gamma[idx] * (im1_rho - self._im1_nodes[idx])

    def _radial_cdf_clipped(self, rho_arr):
        # completed segments plus a partial term
        r_nodes = self._r_nodes
        idx = np.clip(np.searchsorted(r_nodes, rho_arr, side="right") - 1,
                      0, len(r_nodes) - 2)
        val = ((self._cdf_nodes[idx] + self._segment_mass(idx, rho_arr))
               / self._cdf_total)
        return np.clip(val, 0.0, 1.0)

    def log_radial_cdf(self, rho):
        """log of the radial CDF, without underflow.

        On segment k, h = alpha_k + gamma_k r, so the segment holds
        alpha_k dI_m + gamma_k dI_{m+1} between its ends, of the total
        I_m(sigma) that normalization gives the table.  The completed
        segments and the partial one are summed relative to I_m(rho),
        from cap integrals in log space, so the log stays finite where
        the mass is below the double range.  Past the first segment,
        unless the cap integrals at the first node underflow, the CDF
        exceeds that segment's mass, and its log is taken directly.
        """
        rho = float(rho)
        sigma = self.cap.sigma
        if not (0.0 < rho <= sigma * (1.0 + 1e-12)):
            raise ValueError("rho must lie in (0, sigma]")
        rho = min(rho, sigma)
        if rho > self._r_nodes[1] and self._im1_nodes[1] >= _TINY:
            return math.log(float(self._radial_cdf_clipped(
                np.asarray([rho]))[0]))
        m = self._m
        log_im = log_cap_integral(m, rho)
        k = min(int(np.searchsorted(self._r_nodes, rho, side="right")),
                len(self._alpha))
        ends = np.append(self._r_nodes[:k], rho)
        scaled = [np.diff([math.exp(log_cap_integral(j, r) - log_im)
                           for r in ends]) for j in (m, m + 1.0)]
        mass = float(np.dot(self._alpha[:k], scaled[0])
                     + np.dot(self._gamma[:k], scaled[1]))
        return log_im + math.log(mass) - self._log_i_m_sigma

    def inverse_radial_cdf(self, p):
        """Radius at which the radial CDF reaches p; scalar or array.

        _locate finds the segment of the profile table that holds the
        target mass p * total, and _radius maps its mass in that segment
        to a radius through the law's Chebyshev inverse of
        betainc(m/2, 1/2, .) (see _BetaincInverse; the first call builds
        it).  That radius is the answer where h is flat.  Where h slopes,
        _newton refines it by a safeguarded Newton iteration on the
        segment mass, which falls back to bisection of its bracket
        whenever a step leaves it or lands on one of its ends.  Every
        point is solved on its own, so results do not depend on the
        batch.
        Endpoints are exact: p = 0 gives 0, and p = 1 gives the end of
        the support (sigma unless h falls to 0).  The sampler calls this
        method only for laws of constant profile; see sample.

        Deep tails keep their accuracy.  The inverse works in x = r^2,
        so radii below about 1.5e-154 underflow; a uniform p from
        rng.random (at least 2^-53 when positive) never reaches that
        range when n - beta >= 0.5.  Below p = 2^-53 the exponent 2/m of
        the kernel is carried in two parts, so its rounding does not
        grow with |ln p|.

        At sigma = 1 the residual |F(r) - p| near r = 1 can exceed
        1e-12, and no inversion method removes it, inverting in the
        complement 1 - r^2 included: the slope of F there grows like
        1/sqrt(1 - r^2), so one ulp of r moves F by up to about 1e-11.
        The radius returned is within one ulp of the representable
        radius with the least residual.

        Raises ArithmeticError only when the law's radial mass is below
        the normal double range (see radial_cdf).
        """
        p_arr = np.asarray(p, dtype=float)
        scalar = p_arr.ndim == 0
        p_arr = np.atleast_1d(p_arr)
        # a NaN fails both comparisons
        if not (p_arr.min(initial=0.0) >= 0.0
                and p_arr.max(initial=1.0) <= 1.0):
            raise ValueError("p must lie in [0, 1]")
        idx, rem = self._locate(p_arr, "no radius can be inverted")
        out = self._radius(idx, rem)
        idx = np.broadcast_to(idx, rem.shape)
        if self._sloped:
            # the endpoints are set below; p = 0 would cost Newton its
            # every step at r = 0
            self._newton(idx, rem, out, np.flatnonzero(
                (p_arr > 0.0) & (p_arr < 1.0) & (self._gamma[idx] != 0.0)))
        out[p_arr == 0.0] = 0.0
        top = p_arr == 1.0
        out[top] = self._r_nodes[idx[top] + 1]
        if scalar:
            return float(out[0])
        return out

    def _locate(self, p, consequence):
        """The segment that holds the mass p * total for each p in
        [0, 1], and the mass rem of that segment below it.  Raises
        ArithmeticError, saying the consequence, when the law's radial
        mass is below the normal double range."""
        _require_mass(self._cdf_total, self._m, self.cap.sigma, consequence)
        target = p * self._cdf_total
        idx = self._segment_of(target)
        return idx, target - self._cdf_nodes[idx]

    def _segment_of(self, target):
        """The segment that holds each target mass: the number of
        interior nodes below it, which is searchsorted(cdf_nodes, target,
        side="left") - 1 clipped to the segments, so a zero-mass segment
        (h fallen to 0) is never chosen.  The target's bucket fixes it
        when no interior node shares that bucket, one comparison does
        when one does, and a search only when more do.  A law of one
        segment gets the scalar 0, which indexes its tables without a
        gather per point."""
        inner = self._cdf_nodes[1:-1]
        if not len(inner):
            return 0
        bucket = np.minimum((target * self._bucket_scale).astype(np.intp),
                            len(inner))
        idx = self._below[bucket]
        shared = self._below[bucket + 1] - idx
        one = np.flatnonzero(shared == 1)
        idx[one] += inner[idx[one]] < target[one]
        many = np.flatnonzero(shared > 1)
        idx[many] = np.searchsorted(inner, target[many], side="left")
        return idx

    def _radius(self, idx, rem):
        """The radius at which segment idx holds mass rem when h is held
        at its mean over the segment, clipped to the segment: there
        I_m(r) = I_m(r_k) + rem dI_m / mass, which the law's kernel
        inverts.  Exact where h is flat; where h slopes, a draw of the
        kernel's law on the segment when rem is uniform on its mass."""
        x = (self._im_nodes[idx] + rem * self._im_per_mass[idx]) \
            / self._beta_const
        return np.clip(np.sqrt(self._inverse(x)), self._r_nodes[idx],
                       self._r_nodes[idx + 1])

    def _newton(self, idx, rem, out, todo):
        """Safeguarded Newton on the segment residual mass(r) - rem, whose
        derivative is h(r) r^(m-1) / sqrt(1 - r^2), in place on out[todo].
        Each point keeps a bracket, its segment at first, and leaves once
        it stops moving."""
        lo, hi = self._r_nodes[idx[todo]], self._r_nodes[idx[todo] + 1]
        for _ in range(_NEWTON_ITERS):
            if todo.size == 0:
                break
            k, r = idx[todo], out[todo]
            f = self._segment_mass(k, r) - rem[todo]
            lo = np.where(f < 0.0, r, lo)
            hi = np.where(f > 0.0, r, hi)
            h = self._alpha[k] + self._gamma[k] * r
            with np.errstate(divide="ignore", invalid="ignore"):
                slope = h * r ** (self._m - 1.0)
                step = r - f * np.sqrt(1.0 - r * r) / slope
            # a step onto a bracket end bisects instead: in a bracket of a
            # few ulps the step can hop between its two ends for ever.  At
            # a root the step is r itself and stands, even on an end.
            inside = ((lo < step) & (step < hi)) | (step == r)
            out[todo] = new = np.where(inside, step, 0.5 * (lo + hi))
            done = ((np.abs(new - r) <= 2.0 * _EPS * r)
                    | (hi - lo <= 2.0 * _EPS * hi))
            todo, lo, hi = todo[~done], lo[~done], hi[~done]

    def _radii(self, rng, count):
        """count radii drawn from the law: the draws of sample before
        the directions.

        A law of constant profile inverts one uniform per point,
        inverse_radial_cdf(rng.random(count)).  Otherwise a round draws
        a uniform pair (p, v) per point, rng.random((2, count)).  p
        picks the segment k through _locate, as inverse_radial_cdf does,
        and _radius maps its place in that segment's mass to a radius r
        from the kernel's law r^(m-1) (1 - r^2)^(-1/2) on the segment.
        r is kept when v max(h(r_k), h(r_k+1)) <= h(r); the law on the
        segment is the kernel's reweighted by h, so that is von
        Neumann's rejection method, exact whatever the slope.  Each
        rejected point keeps its segment and draws a fresh pair (u, v)
        in the next round, rng.random((2, rejected)), whose u is its
        place in the mass.
        Rounds repeat until every point is kept; on the benchmark's
        table, a round keeps all but about one point in a thousand.
        """
        if not self._sloped:
            return self.inverse_radial_cdf(rng.random(count))
        keep_a, keep_g = self._acceptance

        def draw(k, rem, v):
            # the map's radius for mass rem on segment k, and which to
            # redraw
            rk = self._radius(k, rem)
            return rk, np.flatnonzero(v > keep_a[k] + keep_g[k] * rk)

        p, v = rng.random((2, count))
        seg, rem = self._locate(p, "no radius can be drawn")
        seg = np.broadcast_to(seg, (count,))
        r, todo = draw(seg, rem, v)
        while todo.size:
            k = seg[todo]
            u, v = rng.random((2, todo.size))
            r[todo], miss = draw(k, u * self._mass[k], v)
            todo = todo[miss]
        return r

    @functools.cached_property
    def _acceptance(self):
        """The acceptance h(r) / max h over each segment, as a + g r."""
        h = self.profile.h_grid
        top = np.maximum(h[:-1], h[1:])
        # a segment whose h is 0 at both ends has no mass, and is never
        # drawn
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._alpha / top, self._gamma / top

    def sample(self, rng, size=None):
        """Draw points from the law as unit vectors.

        The radius first, from the draws _radii describes: one uniform
        per point by inverse transform for a law of constant profile,
        uniform pairs by rejection from the law's kernel where h has a
        slope.  Then an independent uniform tangent direction; the
        point is sqrt(1 - r^2) a + r u.  Returns (k,) for size=None,
        else (size, k): an F-ordered view of the (k, size) array the
        geometry builds coordinate-major.  Draw order is fixed: every
        radius draw before the direction's draws, which take each
        point's draws together (see geometry.tangent_direction: k - 1
        gaussians, or at k = 4 uniform pairs until one lies in the unit
        disk).  A law of one segment inverts every radius with scalar
        segment constants.  The geometry is called through this
        module's names tangent_direction and geodesic_point, so
        rebinding them wraps every batch.
        """
        count = 1 if size is None else integer(size, "size")
        r = self._radii(rng, count)
        u = tangent_direction(self.cap.center, rng, size=count)
        z = geodesic_point(self.cap.center, u, r)
        if size is None:
            return z[0]
        return z


def uniform_law(cap):
    """Uniform probability law on the cap (beta = 0, constant profile)."""
    return AdversarialLaw(cap, 0.0)
