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
from that in the last bit.  tangent_direction draws and adds k - 1
terms per point the same way, so up to k = 8 (at k = 4 in particular)
its directions match the row-major formulas bit for bit, signed zeros
aside; from k = 9 on they can differ in the last bit.
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

    Draws k - 1 standard gaussians per point, a gaussian in the
    hyperplane e_i^perp (i = argmax |a_i|) with coordinate i left out,
    normalizes them to w, and maps w into a^perp by the Householder
    reflector H = I - v v^T / (1 + |a_i|), v = a + s e_i, s the sign of
    a_i, which is orthogonal and sends e_i to -s a.  Rotational
    invariance of the gaussian makes the result uniform on the unit
    sphere of the tangent space at a.  H w is w_j - a_j d / (1 + |a_i|)
    off coordinate i and -s d on it, with d = sum_{j != i} a_j w_j
    added first to last; no denominator is below 1, and no LAPACK call
    is made.  A coordinate where a_j = 0 would add only a signed zero
    to d and keeps w_j, so it is skipped: at the pole a = e_0 the map
    is w itself.  A point whose gaussians have norm below 1e-12
    (astronomically rare) is redrawn, in order, from the draws that
    follow.

    With size=None a single (k,) vector is returned, otherwise
    (size, k), an F-ordered view.  The gaussians are drawn as one
    (size, k - 1) array, so the stream gives point i its coordinates in
    order before point i+1, and a point gets the same bits alone as in
    a batch.
    """
    a = np.asarray(a, dtype=float)
    _check_unit(a, "a")
    k = a.shape[0]
    if k < 2:
        raise ValueError("a must have at least two coordinates")
    n_draw = 1 if size is None else int(size)
    if n_draw < 1:
        raise ValueError("size must be positive")
    i = int(np.argmax(np.abs(a)))
    rest = [j for j in range(k) if j != i]
    # the output first, so the gaussians it outlives are freed at the
    # top of the heap, where the next batch array reuses them
    xt = np.empty((k, n_draw))
    y = rng.standard_normal((n_draw, k - 1))
    nrm = _norms(y.T)
    bad = np.flatnonzero(nrm < 1e-12)
    while bad.size:
        y[bad] = rng.standard_normal((bad.size, k - 1))
        nrm[bad] = _norms(y[bad].T)
        bad = bad[nrm[bad] < 1e-12]
    for row, j in enumerate(rest):
        np.divide(y[:, row], nrm, out=xt[j])
    del y, nrm  # d and its temporary reuse their memory
    live = [j for j in rest if a[j] != 0.0]
    d = np.zeros(n_draw)
    if live:
        np.multiply(xt[live[0]], a[live[0]], out=d)
        tmp = np.empty_like(d)
        for j in live[1:]:
            d += np.multiply(xt[j], a[j], out=tmp)
        for j in live:
            xt[j] -= np.multiply(d, a[j] / (1.0 + abs(a[i])), out=tmp)
    np.multiply(d, -1.0 if a[i] >= 0.0 else 1.0, out=xt[i])
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
