"""Geometry of real projective space via unit-sphere representatives.

Points of P^n are handled as unit vectors in R^{n+1}; x and -x denote the
same projective point.  The projective distance is the sine of the angle
between the spanned lines,

    d(x, y) = sqrt(1 - <x, y>^2) = || x - <x, y> y ||,

which takes values in [0, 1].  The second expression is the norm of the
component of x orthogonal to y and is the one used here: it stays accurate
for nearly parallel vectors, where 1 - <x,y>^2 cancels catastrophically.
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


def _check_unit(x, name):
    nrm = np.linalg.norm(x, axis=-1)
    if not np.allclose(nrm, 1.0, rtol=0.0, atol=1e-8):
        raise ValueError("%s is not a unit vector (||.|| deviates by %g)"
                         % (name, float(np.max(np.abs(nrm - 1.0)))))


def proj_distance(x, y):
    """Projective distance between unit vectors (sine of the angle).

    x may be a single vector or an (N, k) array of row vectors; y is a
    single vector of matching dimension.  Returns a scalar or an (N,)
    array with values in [0, 1], invariant under sign flips of either
    argument.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("y must be a single vector")
    if x.shape[-1] != y.shape[0]:
        raise ValueError("dimension mismatch: %s vs %s" % (x.shape, y.shape))
    c = x @ y
    # Norm of the component of x orthogonal to y; exact near c = +-1.
    orth = x - np.multiply.outer(c, y)
    d = np.linalg.norm(orth, axis=-1)
    d = np.clip(d, 0.0, 1.0)
    if x.ndim == 1:
        return float(d)
    return d


def tangent_direction(a, rng, size=None):
    """Uniformly random unit vectors orthogonal to a.

    Draws standard gaussians, removes the component along a, and
    normalizes; rotational invariance of the gaussian makes the result
    uniform on the unit sphere of the tangent space at a.  With
    size=None a single (k,) vector is returned, otherwise (size, k).
    """
    a = np.asarray(a, dtype=float)
    _check_unit(a, "a")
    k = a.shape[0]
    n_draw = 1 if size is None else int(size)
    if n_draw < 1:
        raise ValueError("size must be positive")
    x = rng.standard_normal((n_draw, k))
    x -= np.multiply.outer(x @ a, a)
    nrm = np.linalg.norm(x, axis=1)
    # A numerically zero residual is astronomically rare; redraw if hit.
    bad = nrm < 1e-12
    while np.any(bad):
        x[bad] = rng.standard_normal((int(np.count_nonzero(bad)), k))
        x[bad] -= np.multiply.outer(x[bad] @ a, a)
        nrm = np.linalg.norm(x, axis=1)
        bad = nrm < 1e-12
    x /= nrm[:, None]
    if size is None:
        return x[0]
    return x


def geodesic_point(a, u, r):
    """Point at projective distance r from a in tangent direction u.

    Computes sqrt(1 - r^2) * a + r * u, a unit vector whenever u is a
    unit tangent at a.  Accepts a single direction with scalar r, or an
    (N, k) array of directions with an (N,) array of radii.  r must lie
    in [0, 1].
    """
    a = np.asarray(a, dtype=float)
    u = np.asarray(u, dtype=float)
    r = np.asarray(r, dtype=float)
    _check_unit(a, "a")
    _check_unit(u, "u")
    if np.max(np.abs(u @ a)) > 1e-8:
        raise ValueError("u is not orthogonal to a")
    if np.any(r < 0.0) or np.any(r > 1.0):
        raise ValueError("r must lie in [0, 1]")
    if u.ndim == 1:
        if r.ndim != 0:
            raise ValueError("scalar direction needs scalar r")
        return float(np.sqrt(1.0 - r * r)) * a + float(r) * u
    if r.ndim == 0:
        r = np.full(u.shape[0], float(r))
    return np.sqrt(1.0 - r * r)[:, None] * a + r[:, None] * u
