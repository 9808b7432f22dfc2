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

Every profile is a table of linear segments h = alpha_i + gamma_i r;
the constant one is the single segment h = 1 on [0, sigma].  That table
is the only source of a law's radial mass: the radial CDF is a
closed-form sum of cap-integral increments over it, so no quadrature
enters, and its log carries the first segment in log space, so deep
tails do not underflow.  Sampling is by inverse transform on the radial
coordinate combined with a uniform tangent direction.  The inverse runs
through a piecewise-Chebyshev inverse of the regularized incomplete
beta function, fitted to the inverse volumes._betaincinv_half and
certified on the first inversion of any law with its m = n - beta and
its mass betainc(m/2, 1/2, sigma^2), then shared by all of them: its
start radius is the answer on segments where h is constant.  Each fit
keeps the lowest degree whose coefficient table still passes its
certificate (2 to 4 for the kernels at sigma <= 1/2), so a point
costs only the Clenshaw steps the certificate needs.  Where h is not, a
per-segment Chebyshev fit in the start radius gives the answer; it is
built on the first inversion too, from a safeguarded Newton iteration on
the segment mass that serves as its oracle and certificate.  Every fit
is made once: a kernel branch or a segment whose fit misses its bound
is inverted by the oracle it was certified against, and so is every
point of a law with n - beta above 2 _FIT_MAX_A, where no kernel is
fitted.
"""

import math
import threading

import numpy as np

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
# _certified_fit).  F magnifies that error by about a / sqrt(1 - r^2),
# so the budget holds the radial residual below 1e-12 to sigma = 0.99
# at every a that gets a fit; _CHEB_TOL alone would let m >= 500 pass
# 1e-12 once the full degree's spare accuracy is cut
_PREFIX_BUDGET = 1e-13
# the largest a = m/2 that gets a kernel fit.  F magnifies the fit's
# error by about m/2 near the top of the law, so the radial residual
# max |F(r) - p| grows with m: at sigma = 0.5 it is 3.4e-13, 7.7e-13,
# 9.6e-13 and 1.15e-12 at m = 300, 600, 700 and 1000, against the 1e-12
# that sampling asks.  Above the cut Halley inverts every point (below
# 1e-13 there, at about twice the kernel's cost per point)
_FIT_MAX_A = 320.0


class _ChebyshevPieces:
    """Piecewise Chebyshev interpolant on one or more intervals, of
    degree _CHEB_DEGREE through the Chebyshev points of the first kind
    on every piece.  Interval g starts at lo[g] and is cut into `pieces`
    pieces of width 1 / scale[g], which occupy coefficient columns
    first[g] on; coef[j] holds the degree-j coefficient of every piece.
    The coefficients come from the discrete cosine sum of the values at
    the nodes; the table may keep only a prefix of them (a lower
    degree, see _certified_fit)."""

    def __init__(self, lo, scale, first, pieces, coef=None):
        self.lo = lo
        self.scale = scale
        self.first = first
        # a one-interval table starts at column 0 and needs no offset
        self._offset = bool(np.any(first))
        self.pieces = pieces
        self.coef = coef

    @classmethod
    def equal(cls, lo, hi, pieces):
        """Intervals [lo[g], hi[g]], each cut into `pieces` equal pieces;
        no coefficients yet."""
        return cls(lo, pieces / (hi - lo), pieces * np.arange(len(lo)),
                   pieces)

    def points(self, theta):
        """The points at angles theta on every piece, (len(theta),
        columns)."""
        offset = (np.arange(self.pieces)
                  + 0.5 * (1.0 + np.cos(theta))[:, None])
        return (self.lo[:, None] + offset[:, None, :] / self.scale[:, None]
                ).reshape(len(theta), -1)

    def interpolate(self, values):
        n = _CHEB_DEGREE + 1
        theta = np.pi * (np.arange(n) + 0.5) / n
        self.coef = (2.0 / n) * np.cos(np.outer(np.arange(n), theta)) @ values
        self.coef[0] *= 0.5

    def __call__(self, v, interval=0):
        """Clenshaw's recurrence, one gathered coefficient per step; v
        lies in the given interval (an index, or one per point).  The
        table may have any number of rows, one included."""
        t = v - self.lo[interval]
        t *= self.scale[interval]
        k = np.clip(t.astype(np.intp), 0, self.pieces - 1)
        # t = 2 (u - k) - 1 on the piece, in place
        t -= k
        t *= 2.0
        t -= 1.0
        if self._offset:
            k += self.first[interval]
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


def _certified_fit(solve, lo, hi, pieces, tol=_CHEB_TOL, prefix_tol=None):
    """Fit each interval [lo[g], hi[g]], cut into `pieces` pieces, and
    certify it at the points midway (in angle) between the nodes and at
    the ends of the pieces.  solve(nodes, between) gives, from one call,
    the values at the nodes and a function that maps the fit to its
    relative error at the points between; both point arrays have one
    column per piece.  Returns the fit and which of its intervals it
    certifies: those whose error is at most tol.

    The fit keeps the shortest prefix of its coefficient table, the
    lowest degree, that passes the same certificate at the same points
    on every interval the full table passes, there with an error of at
    most the larger of prefix_tol (tol by default) and the full table's
    own; so each evaluation runs only as many Clenshaw steps as the
    certificate needs, and no node is solved again.  The coefficients
    of a smooth inverse fall off geometrically, so the kernels of the
    incomplete beta keep degree 2 to 4 at sigma <= 1/2; the degree
    rises as sigma nears 1 and with m, to the full _CHEB_DEGREE at
    sigma = 0.99 from m = 64 on."""
    n = _CHEB_DEGREE + 1
    theta = np.pi * (np.arange(n) + 0.5) / n
    between = np.pi * np.arange(n) / n
    fit = _ChebyshevPieces.equal(lo, hi, pieces)
    values, error = solve(fit.points(theta), fit.points(between))
    fit.interpolate(values)

    def errors():
        return error(fit).reshape(n, len(lo), pieces).max(axis=(0, 2))

    err = errors()
    # nan (an underflowed node) misses too
    ok = err <= tol
    if ok.any():
        keep = np.maximum(err[ok], tol if prefix_tol is None else prefix_tol)
        full = fit.coef
        for size in range(1, n):
            fit.coef = full[:size]
            if np.all(errors()[ok] <= keep):
                break
        else:
            fit.coef = full
    return fit, ok


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
    lies beyond that split.  Node values and the build-time certificate
    come from volumes._betaincinv_half, a bracketed Halley iteration on
    the in-house incomplete beta that is solved for the nodes and the
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
            # the evaluation's q, once for every degree the fit tries
            q_y = self._lower_q(y)

            def error(fit):
                with np.errstate(divide="ignore", invalid="ignore"):
                    err = np.abs(q_y * fit(q_y) - ref) / ref
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
            w_y = np.square(1.0 - y)
            return values, lambda fit: (np.abs(1.0 - w_y * fit(w_y) - ref)
                                        / ref)

        self._lower = self._upper = None
        if a > _FIT_MAX_A:
            return
        self._lower = self._branch(lower, 0.0, self.split ** root)
        if top > self.split:
            self._upper = self._branch(upper, (1.0 - top) ** 2,
                                       (1.0 - self.split) ** 2)

    def _branch(self, solve, lo, hi):
        """The branch's fit on [lo, hi], or None if it misses."""
        fit, ok = _certified_fit(solve, np.array([lo]), np.array([hi]),
                                 _CHEB_PIECES, _CHEB_TOL,
                                 min(_CHEB_TOL, _PREFIX_BUDGET / self._a))
        return fit if ok[0] else None

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
        # a start above top (a tabulated segment's h held at its left
        # node, or rounding at p = 1) is clipped to its segment anyway
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
        sigma = float(sigma)
        if not (0.0 < sigma <= 1.0):
            raise ValueError("sigma must lie in (0, 1], got %r" % (sigma,))
        self.center = center / nrm
        self.sigma = sigma

    @property
    def n(self):
        """Dimension of the ambient projective space."""
        return self.center.shape[0] - 1

    def __repr__(self):
        return "Cap(n=%d, sigma=%g)" % (self.n, self.sigma)


class RadialProfile:
    """Radial factor h of a cap law: piecewise linear between nodes
    r_grid that cover [0, sigma], with values h_grid.

    kind is a label for reports, "constant" for the one-segment table
    h = 1 that constant_profile builds and "tabulated" for any other
    table; no computation depends on it.  H is the sup of h, attained
    at a node.
    """

    def __init__(self, kind, r_grid, h_grid, sigma):
        if kind not in ("constant", "tabulated"):
            raise ValueError("unknown profile kind %r" % (kind,))
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
        self.kind = kind
        self.sigma = sigma
        self.r_grid = r_grid
        self.h_grid = h_grid
        self.H = float(np.max(h_grid))

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
    return RadialProfile("constant", [0.0, sigma], [1.0, 1.0], sigma)


def _segment_coeffs(r_grid, h_grid):
    """Per-segment alpha, gamma with h(r) = alpha_i + gamma_i r."""
    dr = np.diff(r_grid)
    gamma = np.diff(h_grid) / dr
    alpha = h_grid[:-1] - gamma * r_grid[:-1]
    return alpha, gamma


def _piecewise_weighted_integrals(r_grid, h_grid, im, im1):
    """Exact integrals of h(r) r^(m-1) (1-r^2)^(-1/2) over each segment,
    given im = I_m and im1 = I_{m+1} at the nodes.

    For piecewise-linear h = alpha + gamma r the segment integral is
    alpha * dI_m + gamma * dI_{m+1} in terms of cap-integral increments,
    so the result is exact up to roundoff.
    """
    alpha, gamma = _segment_coeffs(r_grid, h_grid)
    return alpha * np.diff(im) + gamma * np.diff(im1)


def normalize_profile(raw, n, beta, sigma, grid_points=1025):
    """Tabulate and rescale a raw radial factor into a valid profile.

    raw is either a callable r -> h(r) on [0, sigma], sampled on an
    equispaced grid of grid_points nodes, or a (K, 2) array of
    (r, h) rows whose nodes must already cover [0, sigma].  The raw
    table must pass RadialProfile's checks.  The values are scaled by a
    single constant so the weighted integral of the piecewise-linear
    interpolant equals I_{n-beta}(sigma) (piecewise closed form, no
    quadrature), up to the rounding of the double segment masses that
    set the scale; that is measured in the tests, against 30-digit
    mpmath, not here.
    """
    n = int(n)
    beta = float(beta)
    sigma = float(sigma)
    if not (0.0 <= beta < n):
        raise ValueError("beta must lie in [0, n)")
    if not (0.0 < sigma <= 1.0):
        raise ValueError("sigma must lie in (0, 1]")
    if callable(raw):
        r_grid = np.linspace(0.0, sigma, int(grid_points))
        h_raw = np.asarray([float(raw(r)) for r in r_grid])
    else:
        table = np.asarray(raw, dtype=float)
        if table.ndim != 2 or table.shape[1] != 2:
            raise ValueError("expected a (K, 2) array of (r, h) rows")
        r_grid = table[:, 0].copy()
        h_raw = table[:, 1].copy()
    RadialProfile("tabulated", r_grid, h_raw, sigma)  # validates raw
    r_grid[0] = 0.0
    r_grid[-1] = sigma

    m = n - beta
    im = _vec_cap_integral(m, r_grid)
    im1 = _vec_cap_integral(m + 1.0, r_grid)
    total = float(np.sum(_piecewise_weighted_integrals(r_grid, h_raw, im,
                                                       im1)))
    if not (total > 0.0):
        raise ValueError("raw profile integrates to zero")
    target = float(_vec_cap_integral(m, sigma))
    scale = target / total
    return RadialProfile("tabulated", r_grid, h_raw * scale, sigma)


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
        beta = float(beta)
        n = cap.n
        if not (0.0 <= beta < n):
            raise ValueError("beta must lie in [0, n), got %r with n=%d"
                             % (beta, n))
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

        r_nodes, h_nodes = profile.r_grid, profile.h_grid
        self._r_nodes = r_nodes
        self._h_nodes = h_nodes
        self._im_nodes = _vec_cap_integral(self._m, r_nodes)
        self._im1_nodes = _vec_cap_integral(self._m + 1.0, r_nodes)
        seg = _piecewise_weighted_integrals(r_nodes, h_nodes, self._im_nodes,
                                            self._im1_nodes)
        cum = np.concatenate(([0.0], np.cumsum(seg)))
        self._cdf_nodes = cum
        self._cdf_total = float(cum[-1])
        # equal buckets of mass, one per segment: _below[b] interior nodes
        # lie in the buckets before b
        # (no table when the total underflows: inversion refuses that law)
        count = len(seg)
        with np.errstate(divide="ignore", invalid="ignore"):
            self._bucket_scale = np.float64(count) / self._cdf_total
            bucket = np.minimum(
                (cum[1:-1] * self._bucket_scale).astype(np.intp), count - 1)
        self._below = np.searchsorted(bucket, np.arange(count + 1))
        self._alpha, self._gamma = _segment_coeffs(r_nodes, h_nodes)
        # I_m(r) = _beta_const * betainc(m/2, 1/2, r^2)
        self._beta_const = float(_beta_half(0.5 * self._m) / 2)
        self._check_weight_monotone()
        self._check_mass()
        self._sloped = bool(np.any(self._gamma != 0.0))
        # built on the first inversion by _build; the lock keeps threads
        # sampling one law from building them twice
        self._inverse = None
        self._fits = None
        self._build_lock = threading.Lock()

    @property
    def H(self):
        return self.profile.H

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
        I_m(sigma) is below the double range is not checked."""
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
        below the double range; log_radial_cdf serves such a law.
        """
        rho_arr = np.asarray(rho, dtype=float)
        scalar = rho_arr.ndim == 0
        rho_arr = np.atleast_1d(rho_arr)
        sigma = self.cap.sigma
        if not (np.all(rho_arr >= 0.0)
                and np.all(rho_arr <= sigma * (1.0 + 1e-12))):
            raise ValueError("rho must lie in [0, sigma]")
        self._require_mass("the CDF would be 0/0; log_radial_cdf serves "
                           "this law")
        rho_arr = np.minimum(rho_arr, sigma)
        out = self._radial_cdf_clipped(rho_arr)
        if scalar:
            return float(out[0])
        return out

    def _require_mass(self, consequence):
        """Raise ArithmeticError when the segment masses, held in
        absolute I_m units, underflow to a total of 0."""
        if not self._cdf_total > 0.0:
            raise ArithmeticError(
                "the radial mass I_%g(%g) of the cap is below the double "
                "range, so %s" % (self._m, self.cap.sigma, consequence))

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

        The target mass p * total falls in one segment of the profile
        table.  Holding h at its value at the segment's left node makes
        the segment mass a cap-integral increment, which the law's
        Chebyshev inverse of betainc(m/2, 1/2, .) inverts directly (see
        _BetaincInverse; the first call builds it).  That start radius
        r0 is the answer when h is constant on the segment.  Otherwise
        the answer is r0 g(r0), with g the segment's Chebyshev fit (see
        _fit_segments; the first call builds the fits of every segment
        where h is not constant).  Each fit is made once, and certified
        when it is built against _solve, a safeguarded Newton iteration
        on the segment mass from r0 that falls back to bisection of its
        bracket whenever a step leaves it or lands on one of its ends.
        On a segment whose fit misses its bound that iteration is the
        inverse, as volumes._betaincinv_half is on a kernel branch that
        misses its own.  Every point is solved on its own, so results do
        not depend on the batch.  Endpoints are exact: p = 0 gives 0, and
        p = 1 gives the end of the support (sigma unless h falls to 0).

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
        the double range (see radial_cdf).
        """
        p_arr = np.asarray(p, dtype=float)
        scalar = p_arr.ndim == 0
        p_arr = np.atleast_1d(p_arr)
        p_min, p_max = p_arr.min(initial=0.0), p_arr.max(initial=1.0)
        # a NaN fails both comparisons
        if not (p_min >= 0.0 and p_max <= 1.0):
            raise ValueError("p must lie in [0, 1]")
        self._require_mass("no radius can be inverted")
        r_nodes = self._r_nodes
        target = p_arr * self._cdf_total
        idx = self._segment_of(target)
        rem = target - self._cdf_nodes[idx]
        self._build()
        r0 = self._start(idx, rem)
        if not self._sloped:
            out = np.clip(r0, r_nodes[idx], r_nodes[idx + 1])
        else:
            # the Newton fallback updates its bracket point by point
            idx = np.broadcast_to(idx, rem.shape)
            lo, hi = r_nodes[idx], r_nodes[idx + 1]
            table, newton = self._fits
            out = np.clip(r0 * table(r0, idx), lo, hi)
            self._newton(idx, rem, out, lo, hi, np.flatnonzero(newton[idx]))
        if p_min == 0.0:
            out[p_arr == 0.0] = 0.0
        if p_max == 1.0:
            top = p_arr == 1.0
            out[top] = r_nodes[np.broadcast_to(idx, top.shape)[top] + 1]
        if scalar:
            return float(out[0])
        return out

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

    def _build(self):
        """Build the law's inversion tables once: the inverse of
        betainc(m/2, 1/2, .) (_BetaincInverse, shared with every law of
        the same m and mass through _kernel), then, where h is not
        constant, the segment fits, which are certified through it."""
        with self._build_lock:
            if self._inverse is None:
                self._inverse = _kernel(
                    0.5 * self._m,
                    _betainc_half(0.5 * self._m, self.cap.sigma ** 2))
            if self._sloped and self._fits is None:
                self._fits = self._fit_segments()

    def _start_x(self, idx, rem):
        """betainc(m/2, 1/2, r0^2) for the start radius r0 of _start."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return (self._im_nodes[idx] + rem / self._h_nodes[idx]) \
                / self._beta_const

    def _start(self, idx, rem):
        """Radius at which segment idx holds mass rem when h keeps its
        value at the segment's left node; not clipped to the segment,
        but at most sigma."""
        x = self._start_x(idx, rem)
        return np.sqrt(self._inverse(np.clip(x, 0.0, 1.0)))

    def _solve(self, idx, rem):
        """Radius at which segment idx holds mass rem, by safeguarded
        Newton from the start radius wherever h is not constant: the
        oracle of the segment fits, and their fallback."""
        lo = self._r_nodes[idx]
        hi = self._r_nodes[idx + 1]
        out = np.clip(self._start(idx, rem), lo, hi)
        self._newton(idx, rem, out, lo, hi,
                     np.flatnonzero(self._gamma[idx] != 0.0))
        return out

    def _newton(self, idx, rem, r, lo, hi, active):
        """Iterate _newton_step on the points `active` until each stops
        moving, updating r and its bracket [lo, hi] in place."""
        for _ in range(_NEWTON_ITERS):
            if active.size == 0:
                break
            r[active], lo[active], hi[active], done = self._newton_step(
                idx[active], rem[active], r[active], lo[active], hi[active])
            active = active[~done]

    def _newton_step(self, idx, rem, r, lo, hi):
        """One safeguarded Newton step on the segment residual
        mass(r) - rem, whose derivative is h(r) r^(m-1) / sqrt(1 - r^2).
        Returns the new radius, the updated bracket, and which points
        no longer move."""
        f = self._segment_mass(idx, r) - rem
        lo = np.where(f < 0.0, r, lo)
        hi = np.where(f > 0.0, r, hi)
        h = self._alpha[idx] + self._gamma[idx] * r
        with np.errstate(divide="ignore", invalid="ignore"):
            step = r - f * np.sqrt(1.0 - r * r) / (h * r ** (self._m - 1.0))
        # a step onto a bracket end bisects instead: in a bracket of a
        # few ulps the step can hop between its two ends for ever.  At
        # a root the step is r itself and stands, even on an end.
        inside = ((lo < step) & (step < hi)) | (step == r)
        new = np.where(inside, step, 0.5 * (lo + hi))
        done = ((np.abs(new - r) <= 2.0 * _EPS * r)
                | (hi - lo <= 2.0 * _EPS * hi))
        return new, lo, hi, done

    def _fit_segments(self):
        """Inverse on the segments where h is not constant: r = r0 g(r0),
        r0 the start radius, on r0 from the segment's left node to the
        start at the segment's whole mass.  g is one Chebyshev piece per
        segment; it is smooth where the profile is, the pole r^(m-1)
        being divided out with r0.  Node values and the certificate,
        relative error in r at most _CHEB_TOL / 2 (the kernel's bound in
        r^2), come from one call of _solve, at radii fixed by the law
        alone.  Returns the fits as one interpolant with an interval per
        segment, and which segments keep the Newton iteration: those
        whose fit misses, and those with no fit."""
        mass = np.diff(self._cdf_nodes)
        sloped = np.flatnonzero((self._gamma != 0.0) & (mass > 0.0))
        # a segment whose start passes sigma (h rising) before its mass
        # is reached has no one-to-one start, and keeps Newton
        ends = self._start(sloped, mass[sloped])
        fittable = ((self._start_x(sloped, mass[sloped]) < self._inverse.top)
                    & (ends > self._r_nodes[sloped]))
        segs = sloped[fittable]
        n = _CHEB_DEGREE + 1

        def solve(nodes, between):
            r0 = np.concatenate((nodes, between))
            rem = self._h_nodes[segs] * (_vec_cap_integral(self._m, r0)
                                         - self._im_nodes[segs])
            # the far end of a segment's interval is the start at the
            # segment's whole mass, whose radius is the right node
            r = np.full_like(r0, np.nan)
            r[n] = self._r_nodes[segs + 1]
            rem[n] = mass[segs]
            idx = np.broadcast_to(segs, r0.shape).ravel()
            rem, r = rem.ravel(), r.ravel()
            inner = np.flatnonzero(np.isnan(r))
            r[inner] = self._solve(idx[inner], rem[inner])
            cut = nodes.size
            start = self._start(idx[cut:], rem[cut:])
            want, at = r[cut:], np.tile(np.arange(segs.size), n)
            with np.errstate(divide="ignore", invalid="ignore"):
                values = r[:cut].reshape(nodes.shape) / nodes
            return values, lambda fit: np.abs(start * fit(start, at)
                                              - want) / want

        # every segment without a certified fit reads column 0, g = 1
        # exactly: the start itself, for constant h and as Newton's start
        count = len(mass)
        lo, scale = np.zeros(count), np.zeros(count)
        first = np.zeros(count, dtype=np.intp)
        newton = np.zeros(count, dtype=bool)
        newton[sloped] = True
        coef = np.ones((1, 1))
        if segs.size:
            with np.errstate(divide="ignore", invalid="ignore"):
                fit, ok = _certified_fit(solve, self._r_nodes[segs],
                                         ends[fittable], 1, _CHEB_TOL / 2)
            done = segs[ok]
            lo[done], scale[done] = fit.lo[ok], fit.scale[ok]
            first[done] = fit.first[ok] + 1
            newton[done] = False
            # column 0 keeps g = 1 at the fits' degree: zeros past c_0
            coef = np.zeros((len(fit.coef), 1))
            coef[0] = 1.0
            coef = np.concatenate((coef, fit.coef), axis=1)
        return _ChebyshevPieces(lo, scale, first, 1, coef), newton

    def sample(self, rng, size=None):
        """Draw points from the law as unit vectors.

        Inverse-transform radius first (one uniform per point), then an
        independent uniform tangent direction; the point is
        sqrt(1 - r^2) a + r u.  Returns (k,) for size=None, else
        (size, k): an F-ordered view of the (k, size) array the
        geometry builds coordinate-major.  Draw order is fixed: radius
        uniforms before the direction's draws, which take each point's
        draws together (see geometry.tangent_direction: k - 1 gaussians,
        or at k = 4 uniform pairs until one lies in the unit disk).  A
        law of one segment inverts every radius with scalar segment
        constants.  The geometry is called through this module's names
        tangent_direction and geodesic_point, so rebinding them wraps
        every batch.
        """
        count = 1 if size is None else int(size)
        if count < 1:
            raise ValueError("size must be positive")
        p = rng.random(count)
        r = self.inverse_radial_cdf(p)
        u = tangent_direction(self.cap.center, rng, size=count)
        z = geodesic_point(self.cap.center, u, r)
        if size is None:
            return z[0]
        return z


def uniform_law(cap):
    """Uniform probability law on the cap (beta = 0, constant profile)."""
    return AdversarialLaw(cap, 0.0)
