"""Conic condition numbers of the form C(x) = ||x|| / dist(x, Sigma).

Sigma is a cone of ill-posed inputs in R^{n+1}; both numerator and
denominator are Euclidean, so C is scale invariant and descends to
projective space.  On unit vectors, dist(x, Sigma) agrees with the
projective distance to the projectivization of Sigma, and C(x) is the
reciprocal of that distance.  C is +inf exactly on Sigma.

Three instances are provided: a single hyperplane, a finite union of
hyperplanes, and square matrices with Sigma the singular ones, where
dist_F(A, Sigma) = sigma_min(A) by the Eckart-Young theorem.  Each
instance has one evaluator, evaluate_batch; ConicProblem.evaluate is
evaluate_batch on a batch of one row.  Every instance scales a row
whose norm lies outside [2^-200, 2^200] by a power of two first
(_unit_scaled), so rows far from unit norm neither overflow nor lose
digits; a unit row keeps its bits.  The zero row, which lies on Sigma,
gets +inf, and a row with a NaN or inf entry NaN, in every instance and
without a warning.  Every evaluate_batch takes ||z|| from
geometry._norms, which adds the squares first to last whatever the
memory order of z (np.linalg.norm sums C-ordered rows pairwise), so a
batch and its C-ordered copy get the same bits.  Matrix batches of
m = 2 and 3 get sigma_min in closed form, elementwise, from the
determinant, the 2x2 minors and ||A|| (_closed_sigma_min); rows near
rank one, where those cancel, and m >= 4 get it from LAPACK's batched
SVD.  The tests hold both routes to a 40-digit SVD.

A problem may also carry bound_batch, a cheap upper bound on C per row
that is certified: never below the true C.  matrix:2 and matrix:3 take
it from the closed-form determinant, C <= ||A||^m / ((m-1)^((m-1)/2)
|det A|) by AM-GM on sigma_1 ... sigma_{m-1}, with the rounding of the
determinant subtracted from |det A| first (_det_bound).
ConicProblem.may_reach uses it to keep only the rows whose C may reach
a threshold, which a tail estimate evaluates alone, and evaluate_batch
to send the rows whose bound exceeds _CLOSED_CUT, or 64 times the
closed form's C, to the SVD.  Both read the determinant from one helper
(_det_parts).  The other instances have none, and may_reach keeps
every row of theirs.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._args import integer
from .geometry import _norms

__all__ = [
    "ConicProblem",
    "hyperplane_problem",
    "union_hyperplanes_problem",
    "matrix_problem",
]


@dataclass
class ConicProblem:
    """A condition-number instance.

    n is the projective dimension (inputs live in R^{n+1}), degree is
    the algebraic degree of Sigma.  evaluate_batch maps an (N, n+1)
    array to C per row, an (N,) array in [1, +inf]; each row's C does
    not depend on the rest of the batch.  ill_posed is one unit vector
    lying on Sigma.  bound_batch, where given, maps an (N, n+1) array
    to a cheap certified upper bound on C per row: never below the true
    C (it may be +inf or NaN, which bound nothing).
    """
    name: str
    n: int
    degree: int
    evaluate_batch: Callable[[np.ndarray], np.ndarray]
    ill_posed: Optional[np.ndarray] = field(default=None, repr=False)
    bound_batch: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, repr=False)

    def evaluate(self, x):
        """C(x) of one vector: evaluate_batch on a batch of one row."""
        return float(self.evaluate_batch(
            np.asarray(x, dtype=float).reshape(1, -1))[0])

    def may_reach(self, z, t):
        """The rows of the (N, n+1) array z whose computed C may reach
        t: those whose bound is not below the cut min(t / 2,
        _SCREEN_CEILING), a NaN bound included.  Without a bound_batch,
        or where the cut is not above 1 (C >= 1, so no bound falls
        below it) or is NaN, that is z itself, and bound_batch is not
        called.  Every row left out has computed C below t (see
        _SCREEN_CEILING)."""
        cut = min(t / 2.0, _SCREEN_CEILING)
        if self.bound_batch is None or not cut > 1.0:
            return z
        return z[~(self.bound_batch(z) < cut)]


_EPS = np.finfo(float).eps


def _sum_products(x, y, out, tmp):
    """sum_i x[i] * y[i] over the rows of two (m, N) arrays, added
    first to last into the (N,) row out (the order np.einsum's
    "ij,ij->j" adds in for N > 1)."""
    np.multiply(x[0], y[0], out=out)
    for i in range(1, len(x)):
        np.multiply(x[i], y[i], out=tmp)
        np.add(out, tmp, out=out)
    return out


# rows whose norm lies outside [2^-200, 2^200] get no determinant bound:
# inside, ||A||^m neither overflows nor underflows, and the absolute
# error of an underflowed product is far below eps ||A||^m.
# evaluate_batch scales such rows into it first (_unit_scaled)
_BOUND_NORMS = (2.0 ** -200, 2.0 ** 200)
# rows whose determinant bound exceeds the cut, or the ratio times the
# closed form's C, take sigma_min from the SVD (see _closed_sigma_min)
_CLOSED_CUT = 2.0 ** 23
_RANK_ONE_RATIO = 64.0
# may_reach's cut never exceeds 2^40.  A row it leaves out has true C
# below t / 2, and up to C = 2^40 evaluate_batch's C has a relative
# error far below 2 (below 1e-4), so its computed C is below t too: at
# most about 2^-26 where the closed form serves the row (bound at most
# _CLOSED_CUT, _closed_sigma_min), and within 0.32 eps C measured
# against a 40-digit SVD where LAPACK's SVD does (bound above
# _CLOSED_CUT or _RANK_ONE_RATIO C, so C up to the bound).
# evaluate_batch gives a row the same bits whatever rows share its
# batch, so counting only the rows kept gives the counts of every row
_SCREEN_CEILING = 2.0 ** 40


def _unit_scaled(z):
    """The rows of an (N, k) array, those whose norm lies outside
    _BOUND_NORMS times the power of two that brings their largest entry
    into [1/2, 1), and the rows' norms (geometry._norms).  C is scale
    invariant, so nothing is undone after; other rows keep their bits.
    A row with a NaN or inf entry becomes all NaN, with norm NaN, which
    every instance carries to C = NaN without a warning; the zero row
    keeps its entries and takes norm 1, so that its distance 0 to Sigma
    gives C = +inf.  Call it inside np.errstate: a far row's norm may
    overflow first."""
    nrm = _norms(z.T)
    low, high = _BOUND_NORMS
    # two reductions clear a batch of unit rows; zero, far and
    # non-finite rows fail them (NaN fails every comparison)
    if nrm.min(initial=low) >= low and nrm.max(initial=high) <= high:
        return z, nrm
    far = np.flatnonzero(~((nrm >= low) & (nrm <= high)))
    top = np.max(np.abs(z[far]), axis=1)
    _, exp = np.frexp(top)
    scaled = np.ldexp(z[far], -exp[:, None])
    scaled[~np.isfinite(top)] = math.nan
    z = z.copy(order="K")
    z[far] = scaled
    nrm[far] = _norms(scaled.T)
    nrm[far[top == 0.0]] = 1.0
    return z, nrm


def _svd_sigma_min(z, m):
    """sigma_min of each row of an (N, m*m) array read as an m x m
    matrix, by LAPACK's SVD (the same bits in any stack).  A row with a
    NaN or inf entry gets NaN: it would make the whole stack raise."""
    s = np.full(len(z), math.nan)
    ok = np.flatnonzero(np.isfinite(z).all(axis=1))
    s[ok] = np.linalg.svd(z[ok].reshape(-1, m, m), compute_uv=False)[:, -1]
    return s


def _det_parts(zt, m):
    """det A and the minors of A's first row for each matrix of a
    (m*m, N) coordinate-major stack (the rows of each matrix read row
    by row), m = 2 or 3.  det is ad - bc, or the cofactor expansion
    along the first row, whose minors (e i - f h, d i - f g, d h - e g)
    come back for the closed-form sigma_min (an empty tuple for m = 2).
    """
    if m == 2:
        a, b, c, d = zt
        return a * d - b * c, ()
    a, b, c, d, e, f, g, h, i = zt
    first = (e * i - f * h, d * i - f * g, d * h - e * g)
    return a * first[0] - b * first[1] + c * first[2], first


def _det_bound(nrm, det, m):
    """A certified upper bound on C(A) = ||A||_F / sigma_min(A) per row
    from its norm and _det_parts' determinant, m = 2 or 3.

    sigma_min = |det A| / (sigma_1 ... sigma_{m-1}), and by AM-GM the
    product is at most (||A||^2 / (m-1))^((m-1)/2), so
    C <= ||A||^m / ((m-1)^((m-1)/2) |det A|).  The determinant is
    rounded: every monomial passes through at most 5 roundings, so
    |det_fl - det| <= gamma_5 per(|A|) <= 2.5 eps ||A||^3 for m = 3
    (the permanent is at most the product of the row 1-norms, hence at
    most ||A||^3), and eps ||A||^2 / 2 for m = 2.  The bound divides
    by low = |det_fl| - 8 eps ||A||^m <= |det A|, and is +inf where low
    is not positive (singular and rank-one rows among them) and where
    ||A|| lies outside _BOUND_NORMS.  Its own rounding is below
    25 eps relative.  Call it inside np.errstate: rows outside
    _BOUND_NORMS may overflow before they get +inf.
    """
    num = nrm * nrm
    if m == 3:
        num *= nrm
    low = np.abs(det)
    low -= 8.0 * _EPS * num
    out = num / (float(m - 1) ** ((m - 1) / 2.0) * low)
    ok = low > 0.0
    ok &= nrm > _BOUND_NORMS[0]
    ok &= nrm < _BOUND_NORMS[1]
    out[~ok] = math.inf
    return out


def _det_bound_batch(m):
    """matrix:m's bound_batch, _det_bound on the rows of an (N, m*m)
    array, for m = 2 and 3 (None otherwise)."""
    if m not in (2, 3):
        return None

    def bound_batch(z):
        zt = np.asarray(z, dtype=float).T
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            det, _ = _det_parts(zt, m)
            return _det_bound(_norms(zt), det, m)

    return bound_batch


def _top_eigenvalue(g11, g22, g33, g12, g13, g23):
    """The largest eigenvalue of each symmetric 3x3 matrix G given by
    its six entry rows (g11, g22, g33, g12, g13, g23), within a few eps
    relative where G is positive semidefinite.

    With q the mean eigenvalue, D = G - q I, p^2 = tr(D^2) / 6 and
    r = det(D) / (2 p^3) in [-1, 1], the eigenvalues are q + 2 p
    cos(phi + 2 pi k / 3), phi = acos(r) / 3 (the trigonometric form of
    Cardano's formula).  D's entries carry an absolute error of about
    eps q, so r carries about eps q / p, and acos magnifies that to its
    square root as r nears -1, where the two largest eigenvalues meet:
    there q + 2 p cos(phi) keeps only half the digits.  So where
    r < -1/2 the top pair is split off the third eigenvalue
    mu_3 = 2 p cos(phi + 2 pi / 3) of D instead, which stays accurate
    there: adj(D - mu_3 I) / tr(adj(D - mu_3 I)) is the projector
    v_3 v_3^T, E = D + (mu_3 / 2) I - (3 mu_3 / 2) v_3 v_3^T has the
    eigenvalues +-(mu_1 - mu_2) / 2 and 0, and mu_1 = -mu_3 / 2 +
    ||E||_F / sqrt(2) (mu_1 + mu_2 = -mu_3).  Each error there is again
    about eps q.  Where p is 0, r is 0/0, and every r gives q.
    """
    q = g11 + g22
    q += g33
    q /= 3.0
    d1, d2, d3 = g11 - q, g22 - q, g33 - q
    p2 = d1 * d1 + d2 * d2
    p2 += d3 * d3
    p2 += 2.0 * (g12 * g12 + g13 * g13 + g23 * g23)
    p2 /= 6.0
    p = np.sqrt(p2)
    det = d1 * (d2 * d3 - g23 * g23)
    det -= g12 * (g12 * d3 - g23 * g13)
    det += g13 * (g12 * g23 - d2 * g13)
    r = det / (2.0 * p2 * p)
    # fmin and fmax drop a NaN: the 0/0 of p = 0 becomes 1
    np.fmin(r, 1.0, out=r)
    np.fmax(r, -1.0, out=r)
    phi = np.arccos(r)
    phi /= 3.0
    top = np.cos(phi)
    top *= 2.0 * p
    top += q
    split = np.flatnonzero(r < -0.5)
    if len(split):
        d1, d2, d3, g12, g13, g23 = (x[split] for x in
                                     (d1, d2, d3, g12, g13, g23))
        mu3 = 2.0 * p[split] * np.cos(phi[split] + 2.0 * math.pi / 3.0)
        m1, m2, m3 = d1 - mu3, d2 - mu3, d3 - mu3
        adj = (m2 * m3 - g23 * g23, m1 * m3 - g13 * g13,
               m1 * m2 - g12 * g12, g13 * g23 - g12 * m3,
               g12 * g23 - g13 * m2, g12 * g13 - m1 * g23)
        w = 1.5 * mu3 / (adj[0] + adj[1] + adj[2])
        half = 0.5 * mu3
        e = [x + half - w * c for x, c in zip((d1, d2, d3), adj[:3])]
        e += [x - w * c for x, c in zip((g12, g13, g23), adj[3:])]
        fro = e[0] * e[0] + e[1] * e[1] + e[2] * e[2]
        fro += 2.0 * (e[3] * e[3] + e[4] * e[4] + e[5] * e[5])
        top[split] = q[split] - half + np.sqrt(0.5 * fro)
    return top


def _closed_sigma_min(zt, nrm, det, first):
    """sigma_min of each matrix of a (m*m, N) coordinate-major stack,
    m = 2 or 3, in closed form from its norm and _det_parts' determinant
    and first-row minors.  Call it inside np.errstate.

    m = 2: sigma_min = 2 |det| / (h_1 + h_2), h_1 + h_2 = 2 sigma_max,
    with h_1, h_2 = sqrt(F^2 +- 2 det) (F = ||A||_F) evaluated without
    a subtraction as ||(a + d, b - c)|| and ||(a - d, b + c)||.
    m = 3: sigma_min = |det A| / ||adj A||_2, since the singular values
    of the adjugate are the products sigma_i sigma_j.  ||adj A||_2^2 is
    the largest eigenvalue of the Gram matrix of the rows of 2x2 minors
    (the cofactors' signs do not change it), scaled by 1 / F^4 so that
    nothing overflows (_top_eigenvalue).

    Error, relative, with B the determinant bound (_det_bound): the
    determinant's is at most 2.5 eps F^3 / |det| <= 5 eps B (m = 3) and
    eps F^2 / (2 |det|) <= eps B / 2 (m = 2).  Each minor is off by at
    most eps F^2 / 2, so adj A by 1.5 eps F^2 in Frobenius norm, which
    is at most 2 eps B relative to ||adj A||_2 = |det| / sigma_min >=
    sqrt(3) |det| / F.  The Gram matrix, its eigenvalue and the last
    operations add a few eps, and B >= 2.6 for m = 3.  In all about
    8 eps B: at most sqrt(eps) = 2^-26 for B <= _CLOSED_CUT = 2^23, so
    every row this route serves keeps at least half of a double's
    digits.  Rows away from rank one do far better: within about eps C,
    with B / C at most about 1.9 on the sampled laws.  Near rank one the
    determinant and the minors cancel (10.9 eps C measured below the
    cut), so rows with B > 64 C (_RANK_ONE_RATIO) take the SVD too.
    """
    if len(zt) == 4:
        a, b, c, d = zt
        h = np.sqrt((a + d) ** 2 + (b - c) ** 2)
        h += np.sqrt((a - d) ** 2 + (b + c) ** 2)
        return 2.0 * np.abs(det) / h
    a, b, c, d, e, f, g, h, i = zt
    rows = (first,
            (b * i - c * h, a * i - c * g, a * h - b * g),
            (b * f - c * e, a * f - c * d, a * e - b * d))
    scale = nrm * nrm
    inv = 1.0 / (scale * scale)
    tmp = np.empty_like(nrm)
    gram = []
    for j, k in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)):
        gram.append(_sum_products(rows[j], rows[k], np.empty_like(nrm), tmp))
        gram[-1] *= inv
    scale *= np.sqrt(_top_eigenvalue(*gram))
    return np.abs(det) / scale


def hyperplane_problem(n):
    """Sigma = {x_0 = 0} in R^{n+1}; C(x) = ||x|| / |x_0|, degree 1."""
    n = integer(n, "n")

    def evaluate_batch(z):
        with np.errstate(divide="ignore", over="ignore"):
            z, nrm = _unit_scaled(np.asarray(z, dtype=float))
            return nrm / np.abs(z[:, 0])

    ill = np.zeros(n + 1)
    ill[1] = 1.0
    return ConicProblem("hyperplane", n, 1, evaluate_batch, ill)


def union_hyperplanes_problem(normals):
    """Sigma = union of hyperplanes with the given unit normals.

    dist(x, Sigma) = min_i |<u_i, x>|; the degree is the number of
    hyperplanes (Sigma is the zero set of the product of the linear
    forms).
    """
    u = np.asarray(normals, dtype=float)
    if u.ndim != 2 or u.shape[0] < 1:
        raise ValueError("expected a (k, n+1) array of normals")
    nrm = np.linalg.norm(u, axis=1)
    if not np.max(np.abs(nrm - 1.0)) <= 1e-8:
        raise ValueError("normals must be unit vectors")
    u = u / nrm[:, None]
    k, dim = u.shape
    n = dim - 1

    def evaluate_batch(z):
        with np.errstate(divide="ignore", over="ignore"):
            z, nrm = _unit_scaled(np.asarray(z, dtype=float))
            # min over the k rows of the (k, N) view: the same exact
            # minimum as a reduction over the k-wide inner axis, without
            # its per-point overhead
            dist = np.abs(z @ u.T).T
            low = dist[0].copy()
            for row in dist[1:]:
                np.minimum(low, row, out=low)
            return nrm / low

    # unit vector orthogonal to the first normal lies on Sigma
    seed = np.zeros(dim)
    seed[0] = 1.0
    if abs(u[0] @ seed) > 0.9:
        seed = np.zeros(dim)
        seed[1] = 1.0
    ill = seed - (u[0] @ seed) * u[0]
    ill /= np.linalg.norm(ill)
    return ConicProblem("union:%d" % k, n, k, evaluate_batch, ill)


def matrix_problem(m):
    """Square m x m matrices; Sigma = singular matrices.

    Vectors in R^{m^2} are read as matrices row by row.  By
    Eckart-Young, dist_F(A, Sigma) = sigma_min(A), so
    C(A) = ||A||_F / sigma_min(A), the scaled matrix condition number.
    n = m^2 - 1, degree m (determinant).  For m = 2 and 3, bound_batch
    bounds C from the closed-form determinant (see _det_bound), and
    evaluate_batch takes sigma_min in closed form (see
    _closed_sigma_min), and from LAPACK's batched SVD on the rows its
    bound places near rank one, only those; each row's C is computed on
    its own, so it does not depend on the rest of the batch.  For
    m >= 4 bound_batch is None and the SVD serves every row.  Rows far
    from unit norm are scaled first (_unit_scaled).  The zero matrix
    gets +inf, and a row with a NaN or inf entry gets NaN.
    """
    m = integer(m, "m", least=2)

    def evaluate_batch(z):
        z = np.asarray(z, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            z, nrm = _unit_scaled(z)
            if m > 3:
                s = _svd_sigma_min(z, m)
            else:
                zt = z.T
                det, first = _det_parts(zt, m)
                s = _closed_sigma_min(zt, nrm, det, first)
                # a NaN bound or C never passes, so its row takes the SVD
                cut = np.minimum(_CLOSED_CUT, _RANK_ONE_RATIO * nrm / s)
                slow = np.flatnonzero(~(_det_bound(nrm, det, m) <= cut))
                s[slow] = _svd_sigma_min(z[slow], m)
            return nrm / s

    ill = np.zeros((m, m))
    for i in range(m - 1):
        ill[i, i] = 1.0
    ill = (ill / np.linalg.norm(ill)).reshape(-1)
    return ConicProblem("matrix:%d" % m, m * m - 1, m, evaluate_batch, ill,
                        bound_batch=_det_bound_batch(m))
