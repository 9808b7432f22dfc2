"""Geometry of real projective space via unit-sphere representatives.

Points of P^n are handled as unit vectors in R^{n+1}; x and -x denote the
same projective point.  The projective distance is the sine of the angle
between the spanned lines,

    d(x, y) = sqrt(1 - <x, y>^2) = || x - <x, y> y ||,

which takes values in [0, 1].  The second expression is the norm of the
component of x orthogonal to y and is the one used here: it stays accurate
for nearly parallel vectors, where 1 - <x,y>^2 cancels catastrophically.

A batch of N points is an (N, k) array of row vectors at the interface,
and the arithmetic runs coordinate-major, on its (k, N) transpose: with k
small (4 for the hyperplane in P^3), a sum over the k coordinates of
every point is k - 1 operations on whole rows, several times faster than
the same sum over the short inner axis of an (N, k) array.  The
functions accept a batch in either memory order; tangent_direction and
geodesic_point return one as the transpose of a contiguous (k, N) array,
an F-ordered (N, k) view.  A point's result does not depend on the
memory order of its batch: inner products go through BLAS on row-major
rows, because BLAS picks its summation order by layout, and a norm adds
the k squares first to last.  That is the order of numpy's sum over one
row when k < 8, so at k = 4 every point gets the bits of the row-major
formulas; from k = 8 on numpy sums a row pairwise, and a norm can differ
from that in the last bit.
"""

import numpy as np

__all__ = [
    "normalize",
    "proj_distance",
    "tangent_direction",
    "geodesic_point",
]


def normalize(v):
    """Return v / ||v|| as a 1-d float array.

    Raises ValueError on zero or non-finite input.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("expected a single vector, got ndim=%d" % v.ndim)
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / nrm


def _norms(xt):
    """Euclidean norms of the columns of a (k, N) array, each adding its
    k squares first to last."""
    out = xt[0] * xt[0]
    for row in xt[1:]:
        out += row * row
    return np.sqrt(out, out=out)


def _check_unit(xt, name):
    """Raise unless every column of xt, a (k,) vector or a (k, N) batch,
    has norm 1 within 1e-8; NaN fails the comparison and is rejected."""
    dev = np.max(np.abs(_norms(xt.reshape(xt.shape[0], -1)) - 1.0))
    if not dev <= 1e-8:
        raise ValueError("%s is not a unit vector (||.|| deviates by %g)"
                         % (name, float(dev)))


def _tangent_part(a, x):
    """x - <x, a> a for each row of an (N, k) array x, as a (k, N) array."""
    xt = np.multiply.outer(a, x @ a)
    np.subtract(x.T, xt, out=xt)
    return xt


def proj_distance(x, y):
    """Projective distance between unit vectors (sine of the angle).

    x may be a single vector or an (N, k) array of row vectors in either
    memory order; y is a single vector of matching dimension.  Returns a
    scalar or an (N,) array with values in [0, 1], invariant under sign
    flips of either argument.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("y must be a single vector")
    if x.shape[-1] != y.shape[0]:
        raise ValueError("dimension mismatch: %s vs %s" % (x.shape, y.shape))
    # BLAS sums <x, y> in an order that depends on the memory order of x,
    # so the rows are made row-major first: a point's distance does not
    # depend on the layout of its batch.
    rows = np.ascontiguousarray(x.reshape(-1, y.shape[0]))
    # Norm of the component of x orthogonal to y; exact near <x, y> = +-1.
    d = _norms(_tangent_part(y, rows))
    d = np.clip(d, 0.0, 1.0).reshape(x.shape[:-1])
    if x.ndim == 1:
        return float(d)
    return d


def tangent_direction(a, rng, size=None):
    """Uniformly random unit vectors orthogonal to a.

    Draws standard gaussians, removes the component along a, and
    normalizes; rotational invariance of the gaussian makes the result
    uniform on the unit sphere of the tangent space at a.  With
    size=None a single (k,) vector is returned, otherwise (size, k), an
    F-ordered view.  The gaussians are drawn as one (size, k) array, so
    the stream gives point i its coordinates in order before point i+1.
    """
    a = np.asarray(a, dtype=float)
    _check_unit(a, "a")
    k = a.shape[0]
    n_draw = 1 if size is None else int(size)
    if n_draw < 1:
        raise ValueError("size must be positive")
    xt = _tangent_part(a, rng.standard_normal((n_draw, k)))
    nrm = _norms(xt)
    # A numerically zero residual is astronomically rare; redraw if hit.
    bad = np.flatnonzero(nrm < 1e-12)
    while bad.size:
        redrawn = _tangent_part(a, rng.standard_normal((bad.size, k)))
        xt[:, bad] = redrawn
        nrm[bad] = _norms(redrawn)
        bad = bad[nrm[bad] < 1e-12]
    xt /= nrm
    if size is None:
        return xt[:, 0]
    return xt.T


def geodesic_point(a, u, r):
    """Point at projective distance r from a in tangent direction u.

    Computes sqrt(1 - r^2) * a + r * u, a unit vector whenever u is a
    unit tangent at a.  Accepts a single direction with scalar r, or an
    (N, k) array of directions in either memory order with an (N,)
    array of radii; a batch comes back as an F-ordered (N, k) view.  r
    must lie in [0, 1].
    """
    a = np.asarray(a, dtype=float)
    u = np.asarray(u, dtype=float)
    r = np.asarray(r, dtype=float)
    _check_unit(a, "a")
    ut = u.T
    _check_unit(ut, "u")
    if np.max(np.abs(u @ a)) > 1e-8:
        raise ValueError("u is not orthogonal to a")
    if not (np.min(r) >= 0.0 and np.max(r) <= 1.0):
        raise ValueError("r must lie in [0, 1]")
    if u.ndim == 1:
        if r.ndim != 0:
            raise ValueError("scalar direction needs scalar r")
    elif r.ndim == 0:
        r = np.full(u.shape[0], float(r))
    zt = np.multiply(ut, r, order="C")
    zt += np.multiply.outer(a, np.sqrt(1.0 - r * r))
    return zt.T
