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

Sampling is by inverse transform on the radial coordinate combined
with a uniform tangent direction.  Every profile, the constant one
included, is a table of linear segments h = alpha_i + gamma_i r, on
which the radial CDF is a closed-form sum of cap-integral increments,
so no quadrature enters the sampler.  Its inverse is one betaincinv
per point on segments where h is constant, and a safeguarded Newton
iteration from that start elsewhere.
"""

import math

import numpy as np
from scipy import special

from .geometry import geodesic_point, proj_distance, tangent_direction
from .volumes import _vec_cap_integral, log_cap_integral

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


class Cap:
    """Projective cap: unit center a in R^{n+1} and radius sigma in (0, 1]."""

    def __init__(self, center, sigma):
        center = np.asarray(center, dtype=float)
        if center.ndim != 1 or center.shape[0] < 2:
            raise ValueError("center must be a vector in R^{n+1}, n >= 1")
        nrm = np.linalg.norm(center)
        if abs(nrm - 1.0) > 1e-8:
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
    """Radial factor h of a cap law.

    Either the constant-one profile (kind "constant"), or a tabulated
    profile (kind "tabulated") that is piecewise linear between nodes
    r_grid covering [0, sigma].  H is the sup of h, attained at a node
    in the tabulated case.
    """

    def __init__(self, kind, r_grid=None, h_grid=None, sigma=None,
                 normalization_residual=0.0):
        if kind not in ("constant", "tabulated"):
            raise ValueError("unknown profile kind %r" % (kind,))
        self.kind = kind
        self.sigma = sigma
        self.normalization_residual = float(normalization_residual)
        if kind == "constant":
            self.r_grid = None
            self.h_grid = None
            self.H = 1.0
            return
        r_grid = np.asarray(r_grid, dtype=float)
        h_grid = np.asarray(h_grid, dtype=float)
        if r_grid.ndim != 1 or r_grid.shape != h_grid.shape or len(r_grid) < 2:
            raise ValueError("tabulated profile needs matching 1-d node arrays")
        if np.any(np.diff(r_grid) <= 0.0):
            raise ValueError("profile nodes must be strictly increasing")
        if sigma is None:
            raise ValueError("tabulated profile needs its cap radius sigma")
        if abs(r_grid[0]) > 1e-12 or abs(r_grid[-1] - sigma) > 1e-12 * sigma:
            raise ValueError("profile nodes must cover [0, sigma] exactly")
        if not np.all(np.isfinite(h_grid)):
            raise ValueError("profile values must be finite")
        if np.any(h_grid < 0.0):
            raise ValueError("profile values must be nonnegative")
        if h_grid[0] <= 0.0:
            raise ValueError("profile must be positive at r = 0")
        self.r_grid = r_grid
        self.h_grid = h_grid
        self.H = float(np.max(h_grid))

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "constant":
            out = np.ones_like(r)
        else:
            out = np.interp(r, self.r_grid, self.h_grid)
        if r.ndim == 0:
            return float(out)
        return out


def constant_profile():
    """The profile h identically equal to one (already normalized)."""
    return RadialProfile("constant")


def _segment_coeffs(r_grid, h_grid):
    """Per-segment alpha, gamma with h(r) = alpha_i + gamma_i r."""
    dr = np.diff(r_grid)
    gamma = np.diff(h_grid) / dr
    alpha = h_grid[:-1] - gamma * r_grid[:-1]
    return alpha, gamma


def _piecewise_weighted_integrals(r_grid, h_grid, m):
    """Exact integrals of h(r) r^(m-1) (1-r^2)^(-1/2) over each segment.

    For piecewise-linear h = alpha + gamma r the segment integral is
    alpha * dI_m + gamma * dI_{m+1} in terms of cap-integral increments,
    so the result is exact up to roundoff.
    """
    alpha, gamma = _segment_coeffs(r_grid, h_grid)
    im = _vec_cap_integral(m, r_grid)
    im1 = _vec_cap_integral(m + 1.0, r_grid)
    return alpha * np.diff(im) + gamma * np.diff(im1)


def normalize_profile(raw, n, beta, sigma, grid_points=1025):
    """Tabulate and rescale a raw radial factor into a valid profile.

    raw is either a callable r -> h(r) on [0, sigma], sampled on an
    equispaced grid of grid_points nodes, or a (K, 2) array of
    (r, h) rows whose nodes must already cover [0, sigma].  The values
    are scaled by a single constant so the weighted integral of the
    piecewise-linear interpolant equals I_{n-beta}(sigma) exactly
    (piecewise closed form, no quadrature).
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
        if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] < 2:
            raise ValueError("expected a (K, 2) array of (r, h) rows")
        r_grid = table[:, 0].copy()
        h_raw = table[:, 1].copy()
    if not np.all(np.isfinite(h_raw)):
        raise ValueError("raw profile has non-finite values")
    if np.any(h_raw < 0.0):
        raise ValueError("raw profile has negative values")
    if h_raw[0] <= 0.0:
        raise ValueError("raw profile must be positive at r = 0")
    if np.any(np.diff(r_grid) <= 0.0):
        raise ValueError("profile nodes must be strictly increasing")
    if abs(r_grid[0]) > 1e-12 or abs(r_grid[-1] - sigma) > 1e-12 * sigma:
        raise ValueError("profile nodes must cover [0, sigma]")
    r_grid[0] = 0.0
    r_grid[-1] = sigma

    m = n - beta
    total = float(np.sum(_piecewise_weighted_integrals(r_grid, h_raw, m)))
    if not (total > 0.0):
        raise ValueError("raw profile integrates to zero")
    target = math.exp(log_cap_integral(m, sigma))
    scale = target / total
    h_grid = h_raw * scale
    back = float(np.sum(_piecewise_weighted_integrals(r_grid, h_grid, m)))
    residual = abs(back - target) / target
    return RadialProfile("tabulated", r_grid=r_grid, h_grid=h_grid,
                         sigma=sigma, normalization_residual=residual)


class AdversarialLaw:
    """Cap law with density c * r^(-beta) * h(r) against the uniform law.

    Construction validates the pole exponent (0 <= beta < n), profile
    compatibility, and that the full radial weight g(r) = r^(-beta) h(r)
    is nonincreasing, exactly on each linear segment of the profile.  The
    normalization constant c = I_n(sigma) / I_{n-beta}(sigma) is
    computed in log space.
    """

    def __init__(self, cap, beta, profile=None):
        if profile is None:
            profile = constant_profile()
        beta = float(beta)
        n = cap.n
        if not (0.0 <= beta < n):
            raise ValueError("beta must lie in [0, n), got %r with n=%d"
                             % (beta, n))
        if profile.kind == "tabulated" and profile.sigma is not None:
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

        # one segment table for every profile: the constant profile is
        # the single segment h = 1 on [0, sigma] (alpha = 1, gamma = 0)
        if profile.kind == "tabulated":
            r_nodes, h_nodes = profile.r_grid, profile.h_grid
        else:
            r_nodes, h_nodes = np.array([0.0, cap.sigma]), np.ones(2)
        self._r_nodes = r_nodes
        self._h_nodes = h_nodes
        seg = _piecewise_weighted_integrals(r_nodes, h_nodes, self._m)
        cum = np.concatenate(([0.0], np.cumsum(seg)))
        self._cdf_nodes = cum
        self._cdf_total = float(cum[-1])
        self._im_nodes = _vec_cap_integral(self._m, r_nodes)
        self._im1_nodes = _vec_cap_integral(self._m + 1.0, r_nodes)
        self._alpha, self._gamma = _segment_coeffs(r_nodes, h_nodes)
        # I_m(r) = _beta_const * betainc(m/2, 1/2, r^2)
        self._beta_const = 0.5 * math.exp(special.betaln(0.5 * self._m, 0.5))
        self._check_weight_monotone()

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
        """P(d(x, a) <= rho) for x drawn from the law; scalar or array."""
        rho_arr = np.asarray(rho, dtype=float)
        scalar = rho_arr.ndim == 0
        rho_arr = np.atleast_1d(rho_arr)
        sigma = self.cap.sigma
        if np.any(rho_arr < 0.0) or np.any(rho_arr > sigma * (1.0 + 1e-12)):
            raise ValueError("rho must lie in [0, sigma]")
        rho_arr = np.minimum(rho_arr, sigma)
        out = self._radial_cdf_clipped(rho_arr)
        if scalar:
            return float(out[0])
        return out

    def _segment_mass(self, idx, rho):
        """Mass of segment idx below rho (closed form, alpha and gamma
        terms in cap-integral increments)."""
        im_rho = _vec_cap_integral(self._m, rho)
        im1_rho = _vec_cap_integral(self._m + 1.0, rho)
        return (self._alpha[idx] * (im_rho - self._im_nodes[idx])
                + self._gamma[idx] * (im1_rho - self._im1_nodes[idx]))

    def _radial_cdf_clipped(self, rho_arr):
        # completed segments plus a partial term
        r_nodes = self._r_nodes
        idx = np.clip(np.searchsorted(r_nodes, rho_arr, side="right") - 1,
                      0, len(r_nodes) - 2)
        val = ((self._cdf_nodes[idx] + self._segment_mass(idx, rho_arr))
               / self._cdf_total)
        return np.clip(val, 0.0, 1.0)

    def log_radial_cdf(self, rho):
        """log of the radial CDF, without underflow for the constant profile."""
        rho = float(rho)
        sigma = self.cap.sigma
        if not (0.0 < rho <= sigma * (1.0 + 1e-12)):
            raise ValueError("rho must lie in (0, sigma]")
        rho = min(rho, sigma)
        if self.profile.kind == "constant":
            return log_cap_integral(self._m, rho) - self._log_i_m_sigma
        val = float(self._radial_cdf_clipped(np.asarray([rho]))[0])
        if val == 0.0:
            raise ValueError("radial CDF underflows at rho=%g; no log-space "
                             "route for tabulated profiles" % rho)
        return math.log(val)

    def inverse_radial_cdf(self, p):
        """Radius at which the radial CDF reaches p; scalar or array.

        The target mass p * total falls in one segment of the profile
        table.  Holding h at its value at the segment's left node makes
        the segment mass a cap-integral increment, which betaincinv
        inverts directly: exact when h is constant on the segment (the
        constant profile takes one betaincinv per point).  Otherwise a
        safeguarded Newton iteration on the segment mass follows,
        falling back to bisection of its bracket whenever a step leaves
        it or lands on one of its ends.  Every point is solved on its
        own, so results do not depend on the batch.  Endpoints are
        exact: p = 0 gives 0, and p = 1 gives the end of the support
        (sigma unless h falls to 0).

        Deep tails keep their accuracy, with one limit: betaincinv
        works in x = r^2, so radii below about 1.5e-154 underflow.  A
        uniform p from rng.random (at least 2^-53 when positive) never
        reaches that range when n - beta >= 0.5.

        At sigma = 1 the residual |F(r) - p| near r = 1 can exceed
        1e-12, and no inversion method removes it, inverting in the
        complement 1 - r^2 included: the slope of F there grows like
        1/sqrt(1 - r^2), so one ulp of r moves F by up to about 1e-11.
        The radius returned is within one ulp of the representable
        radius with the least residual.
        """
        p_arr = np.asarray(p, dtype=float)
        scalar = p_arr.ndim == 0
        p_arr = np.atleast_1d(p_arr)
        if np.any(p_arr < 0.0) or np.any(p_arr > 1.0):
            raise ValueError("p must lie in [0, 1]")
        r_nodes = self._r_nodes
        target = p_arr * self._cdf_total
        # side="left" never selects a zero-mass segment (h fallen to 0)
        idx = np.clip(np.searchsorted(self._cdf_nodes, target, side="left")
                      - 1, 0, len(r_nodes) - 2)
        rem = target - self._cdf_nodes[idx]
        lo = r_nodes[idx]
        hi = r_nodes[idx + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            x = (self._im_nodes[idx] + rem / self._h_nodes[idx]) \
                / self._beta_const
        x = special.betaincinv(0.5 * self._m, 0.5, np.clip(x, 0.0, 1.0))
        out = np.clip(np.sqrt(x), lo, hi)
        active = np.flatnonzero(self._gamma[idx] != 0.0)
        for _ in range(_NEWTON_ITERS):
            if active.size == 0:
                break
            out[active], lo[active], hi[active], done = self._newton_step(
                idx[active], rem[active], out[active], lo[active],
                hi[active])
            active = active[~done]
        out[p_arr == 0.0] = 0.0
        top = p_arr == 1.0
        out[top] = r_nodes[idx[top] + 1]
        if scalar:
            return float(out[0])
        return out

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

    def sample(self, rng, size=None):
        """Draw points from the law as unit vectors.

        Inverse-transform radius first (one uniform per point), then an
        independent uniform tangent direction; the point is
        sqrt(1 - r^2) a + r u.  Returns (k,) for size=None, else
        (size, k).  Draw order is fixed: radius uniforms before
        direction gaussians.
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
    return AdversarialLaw(cap, 0.0, constant_profile())
