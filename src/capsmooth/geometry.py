"""Geometry of real projective space via unit-sphere representatives.

Points of P^n are handled as unit vectors in R^{n+1}; x and -x denote the
same projective point.  The projective distance is the sine of the angle
between the spanned lines,

    d(x, y) = sqrt(1 - <x, y>^2) = || x - <x, y> y ||,

which takes values in [0, 1].  The second expression is the norm of the
component of x orthogonal to y and is the one used here: it stays accurate
for nearly parallel vectors, where 1 - <x,y>^2 cancels catastrophically.

A set of N points is an (N, k) array of row vectors at the interface,
one point a batch of one row, and the arithmetic runs coordinate-major,
on its (k, N) transpose: with k small (4 for the hyperplane in P^3), a
sum over the k coordinates of every point is k - 1 operations on whole
rows, several times faster than the same sum over the short inner axis
of an (N, k) array.  The functions accept a batch in either memory
order; tangent_direction and geodesic_point return one as the
transpose of a contiguous (k, N) array, an F-ordered (N, k) view.  A
point's result does not depend on the memory order of its batch:
proj_distance's inner products go through BLAS on row-major rows,
because BLAS picks its summation order by layout; geodesic_point is
elementwise, with no inner product at all; and a norm adds the k
squares first to last.  That is the order of numpy's sum over one row
when k < 8, so at k = 4 every point gets the bits of the row-major
formulas; from k = 8 on numpy sums a row pairwise, and a norm can
differ from that in the last bit.  tangent_direction's reflector adds
its k - 1 terms per point the same way, onto a sphere point that is,
at k = 4, Marsaglia's elementwise map of a disk point, and otherwise a
gaussian row divided by such a norm.  So up to k = 8 (at k = 4 in
particular) its directions match the row-major formulas bit for bit,
signed zeros aside; from k = 9 on they can differ in the last bit.
"""

import math

import numpy as np

from ._args import integer

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
    if xt.ndim == 1:
        dev = abs(math.sqrt(xt @ xt) - 1.0)
    else:
        dev = np.max(np.abs(_norms(xt) - 1.0))
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

    x is an (N, k) array of row vectors in either memory order, one
    point a batch of one row; y is a single vector of dimension k.
    Returns an (N,) array with values in [0, 1], invariant under sign
    flips of either argument.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("y must be a single vector")
    if x.ndim != 2:
        raise ValueError("x must be an (N, k) batch, got ndim=%d" % x.ndim)
    if x.shape[1] != y.shape[0]:
        raise ValueError("x has dimension %d but y has dimension %d"
                         % (x.shape[1], y.shape[0]))
    # BLAS sums <x, y> in an order that depends on the memory order of x,
    # so the rows are made row-major first: a point's distance does not
    # depend on the layout of its batch.
    rows = np.ascontiguousarray(x)
    # Norm of the component of x orthogonal to y; exact near <x, y> = +-1.
    return np.clip(_norms(_tangent_part(y, rows)), 0.0, 1.0)


def _gaussian_sphere(rng, rows):
    """Fill rows, m arrays of one length N, with N points uniform on the
    unit sphere of R^m: m standard gaussians per point, drawn as one
    (N, m) block, normalized.  A point whose gaussians have norm below
    1e-12 (astronomically rare) is redrawn, in order, from the draws
    that follow."""
    m = len(rows)
    y = rng.standard_normal((len(rows[0]), m))
    nrm = _norms(y.T)
    bad = np.flatnonzero(nrm < 1e-12)
    while bad.size:
        y[bad] = rng.standard_normal((bad.size, m))
        nrm[bad] = _norms(y[bad].T)
        bad = bad[nrm[bad] < 1e-12]
    for row, out in enumerate(rows):
        np.divide(y[:, row], nrm, out=out)


# pairs drawn per point still wanted by the disk rejection of
# _disk_sphere: 4/pi = 1.27 on average, so one block nearly always
# serves a batch
_DISK_PAIRS = 1.3


def _disk_sphere(rng, rows):
    """Fill rows, three arrays of one length N, with N points uniform
    on the unit 2-sphere (Marsaglia, Ann. Math. Statist. 43, 1972):
    (x, y) uniform in the unit disk, s = x^2 + y^2, maps to
    (2 x sqrt(1 - s), 2 y sqrt(1 - s), 1 - 2 s).  The disk point is a
    pair of rng.random((m, 2)) rescaled to [-1, 1)^2, kept when s < 1;
    blocks of about 1.3 pairs per point still wanted are drawn until
    every point has one, and point i takes the i-th kept pair of the
    stream."""
    n = len(rows[0])
    done = 0
    while done < n:
        need = n - done
        xy = rng.random((int(_DISK_PAIRS * need) + 2, 2))
        xy *= 2.0
        xy -= 1.0
        sq = np.square(xy)
        s = sq[:, 0] + sq[:, 1]
        inside = s < 1.0
        xy = np.compress(inside, xy, axis=0)[:need]
        s = np.compress(inside, s)[:need]
        got = slice(done, done + len(s))
        scale = np.subtract(1.0, s)
        np.sqrt(scale, out=scale)
        scale *= 2.0
        np.multiply(xy[:, 0], scale, out=rows[0][got])
        np.multiply(xy[:, 1], scale, out=rows[1][got])
        np.multiply(s, -2.0, out=rows[2][got])
        rows[2][got] += 1.0
        done += len(s)


def tangent_direction(a, rng, size):
    """Uniformly random unit vectors orthogonal to a.

    Draws a point w uniform on the unit sphere of the hyperplane
    e_i^perp (i = argmax |a_i|), coordinate i left out, and maps it
    into a^perp by the Householder reflector H = I - v v^T / (1 +
    |a_i|), v = a + s e_i, s the sign of a_i, which is orthogonal and
    sends e_i to -s a, so H w is uniform on the unit sphere of the
    tangent space at a.  At k = 4 that sphere is the 2-sphere, and w
    comes from a uniform point of the unit disk by Marsaglia's map
    (_disk_sphere: uniforms only, about 2.55 per point, and no
    redraw); at every other k it is k - 1 normalized standard
    gaussians (_gaussian_sphere), redrawn where their norm is below
    1e-12.  H w is w_j - a_j d / (1 + |a_i|) off coordinate i and -s d
    on it, with d = sum_{j != i} a_j w_j added first to last; no
    denominator is below 1, and no LAPACK call is made.  A coordinate
    where a_j = 0 would add only a signed zero to d and keeps w_j, so
    it is skipped: at the pole a = e_0 the map is w itself.

    Returns (size, k), an F-ordered view.  The draws come in one
    stream order, (size, 2) uniform pairs at k = 4 and (size, k - 1)
    gaussians otherwise, so point i takes its draws before point i+1,
    and a point gets the same bits in a batch of one as in a larger
    batch.
    """
    a = np.asarray(a, dtype=float)
    _check_unit(a, "a")
    k = a.shape[0]
    if k < 2:
        raise ValueError("a must have at least two coordinates")
    n_draw = integer(size, "size")
    i = int(np.argmax(np.abs(a)))
    rest = [j for j in range(k) if j != i]
    # the output first, so the draws it outlives are freed at the top of
    # the heap, where the next batch array reuses them
    xt = np.empty((k, n_draw))
    sphere = _disk_sphere if k == 4 else _gaussian_sphere
    sphere(rng, [xt[j] for j in rest])
    live = [j for j in rest if a[j] != 0.0]
    d = 0.0
    if live:
        d = np.multiply(xt[live[0]], a[live[0]])
        tmp = np.empty_like(d)
        for j in live[1:]:
            d += np.multiply(xt[j], a[j], out=tmp)
        for j in live:
            xt[j] -= np.multiply(d, a[j] / (1.0 + abs(a[i])), out=tmp)
    np.multiply(d, -1.0 if a[i] >= 0.0 else 1.0, out=xt[i])
    return xt.T


def geodesic_point(a, u, r):
    """Point at projective distance r from a in tangent direction u.

    Computes sqrt(1 - r^2) * a + r * u, a unit vector whenever u is a
    unit tangent at a.  u is an (N, k) array of directions in either
    memory order, one direction a batch of one row; r is an (N,) array
    of radii, or one radius for every row, in [0, 1].  The points come
    back as an F-ordered (N, k) view.  The a term, and the check that u
    is orthogonal to a, run only over the coordinates where a is
    nonzero, a row at a time: a zero a_j would add only a signed zero.
    """
    a = np.asarray(a, dtype=float)
    u = np.asarray(u, dtype=float)
    r = np.asarray(r, dtype=float)
    _check_unit(a, "a")
    if u.ndim != 2:
        raise ValueError("u must be an (N, k) batch, got ndim=%d" % u.ndim)
    ut = u.T
    _check_unit(ut, "u")
    live = np.flatnonzero(a)
    dot = ut[live[0]] * a[live[0]]
    for j in live[1:]:
        dot += ut[j] * a[j]
    if np.max(np.abs(dot)) > 1e-8:
        raise ValueError("u is not orthogonal to a")
    if not (np.min(r) >= 0.0 and np.max(r) <= 1.0):
        raise ValueError("r must lie in [0, 1]")
    zt = np.multiply(ut, r, order="C")
    c = np.sqrt(1.0 - r * r)
    for j in live:
        zt[j] += a[j] * c
    return zt.T
