"""Conic condition numbers of the form C(x) = ||x|| / dist(x, Sigma).

Sigma is a cone of ill-posed inputs in R^{n+1}; both numerator and
denominator are Euclidean, so C is scale invariant and descends to
projective space.  On unit vectors, dist(x, Sigma) agrees with the
projective distance to the projectivization of Sigma, and C(x) is the
reciprocal of that distance.  C is +inf exactly on Sigma.

Three instances are provided: a single hyperplane, a finite union of
hyperplanes, and square matrices with Sigma the singular ones, where
dist_F(A, Sigma) = sigma_min(A) by the Eckart-Young theorem.  Every
evaluate_batch takes ||z|| from geometry._norms, which adds the squares
first to last whatever the memory order of z (np.linalg.norm sums
C-ordered rows pairwise), so a batch and its C-ordered copy get the
same bits.  Matrix
batches get sigma_min from one-sided Jacobi run on the whole stack at
once; the scalar path stays on LAPACK's SVD and is the independent
reference the batch path is tested against.

A problem may also carry bound_batch, a cheap upper bound on C per row
that is certified: never below the true C.  matrix:2 and matrix:3 take
it from the closed-form determinant, C <= ||A||^m / ((m-1)^((m-1)/2)
|det A|) by AM-GM on sigma_1 ... sigma_{m-1}, with the rounding of the
determinant subtracted from |det A| first (_det_bound_batch).  A tail
estimate uses it to skip the rows that cannot reach its lowest
threshold (see montecarlo).  The other instances have none.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .geometry import _norms

__all__ = [
    "ConicProblem",
    "smallest_singular_value",
    "hyperplane_problem",
    "union_hyperplanes_problem",
    "matrix_problem",
]


@dataclass
class ConicProblem:
    """A condition-number instance.

    n is the projective dimension (inputs live in R^{n+1}), degree is
    the algebraic degree of Sigma.  evaluate maps one nonzero vector to
    C(x) in [1, +inf]; evaluate_batch maps an (N, n+1) array to an (N,)
    array and must agree with evaluate row by row.  ill_posed is one
    unit vector lying on Sigma.  bound_batch, where given, maps an
    (N, n+1) array to a cheap certified upper bound on C per row: never
    below the true C (it may be +inf or NaN, which bound nothing).
    """
    name: str
    n: int
    degree: int
    evaluate: Callable[[np.ndarray], float]
    evaluate_batch: Callable[[np.ndarray], np.ndarray]
    ill_posed: Optional[np.ndarray] = field(default=None, repr=False)
    bound_batch: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, repr=False)


def smallest_singular_value(a):
    """sigma_min of a square matrix, by SVD."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix, got shape %s"
                         % (a.shape,))
    return float(np.linalg.svd(a, compute_uv=False)[-1])


# one-sided Jacobi: a cap on sweeps.  The 3x3 stacks of the sampled laws
# stop after 5 sweeps, the last a check that no matrix rotates, run on
# only the about 6% of matrices still active
_JACOBI_SWEEPS = 30
_EPS = np.finfo(float).eps
# the sign bit of a float64, as an int64
_SIGN_BIT = np.int64(-2 ** 63)


def _sum_products(x, y, out, tmp):
    """sum_i x[i] * y[i] over the rows of two (m, N) arrays, added
    first to last into the (N,) row out (the order np.einsum's
    "ij,ij->j" adds in for N > 1)."""
    np.multiply(x[0], y[0], out=out)
    for i in range(1, len(x)):
        np.multiply(x[i], y[i], out=tmp)
        np.add(out, tmp, out=out)
    return out


def _jacobi_sweep(cols, spare, floor, tol, rows, flags):
    """One sweep of one-sided Jacobi over every column pair (p, q) of
    the stack held as cols, a list of m (m, K) column arrays.  Every
    step writes into the work rows, (8, K) floats and (3, K) bools; a
    rotated column p is written into the (m, K) array spare, which then
    takes its place in cols.  Returns the flag row of the matrices that
    rotated some pair, and the array now spare."""
    alpha, beta, gamma, zeta, t, c, s, tmp = rows
    rot, mask, moved = flags
    moved.fill(False)
    m = len(cols)
    for p in range(m - 1):
        for q in range(p + 1, m):
            cp, cq = cols[p], cols[q]
            _sum_products(cp, cp, alpha, tmp)
            _sum_products(cq, cq, beta, tmp)
            _sum_products(cp, cq, gamma, tmp)
            # rot: |gamma| > tol sqrt(alpha) sqrt(beta), and both
            # columns above the floor
            np.sqrt(alpha, out=tmp)
            np.multiply(tol, tmp, out=tmp)
            np.sqrt(beta, out=c)
            np.multiply(tmp, c, out=tmp)
            np.abs(gamma, out=c)
            np.greater(c, tmp, out=rot)
            np.greater(alpha, floor, out=mask)
            rot &= mask
            np.greater(beta, floor, out=mask)
            rot &= mask
            if not rot.any():
                continue
            # t = sign(zeta) / (|zeta| + sqrt(1 + zeta^2)),
            # zeta = (beta - alpha) / (2 gamma); t = 0 where not rot
            np.subtract(beta, alpha, out=zeta)
            np.multiply(2.0, gamma, out=tmp)
            np.divide(zeta, tmp, out=zeta)
            np.multiply(zeta, zeta, out=t)
            np.add(1.0, t, out=t)
            np.sqrt(t, out=t)
            np.abs(zeta, out=tmp)
            np.add(tmp, t, out=t)
            # the sign of zeta ORed into the positive 1 / (...): the
            # bits of copysign(1, zeta) / (...), since -1/x == -(1/x)
            np.divide(1.0, t, out=t)
            np.bitwise_and(zeta.view(np.int64), _SIGN_BIT,
                           out=tmp.view(np.int64))
            np.bitwise_or(t.view(np.int64), tmp.view(np.int64),
                          out=t.view(np.int64))
            np.logical_not(rot, out=mask)
            np.copyto(t, 0.0, where=mask)
            # c = 1 / sqrt(1 + t^2), s = c t
            np.multiply(t, t, out=c)
            np.add(1.0, c, out=c)
            np.sqrt(c, out=c)
            np.divide(1.0, c, out=c)
            np.multiply(c, t, out=s)
            # (cp, cq) <- (c cp - s cq, s cp + c cq), a row at a time:
            # whole (m, K) blocks leave the cache between steps
            for new, x, y in zip(spare, cp, cq):
                np.multiply(c, x, out=new)
                np.multiply(s, y, out=tmp)
                np.subtract(new, tmp, out=new)
                np.multiply(s, x, out=tmp)
                np.multiply(c, y, out=y)
                np.add(tmp, y, out=y)
            cols[p], spare = spare, cp
            np.not_equal(t, 0.0, out=mask)
            moved |= mask
    return moved, spare


def _column_min(cols, rows):
    """sigma_min of each matrix of a converged stack: its smallest
    column norm."""
    low, sq, tmp = rows[0], rows[1], rows[2]
    _sum_products(cols[0], cols[0], low, tmp)
    for col in cols[1:]:
        np.minimum(low, _sum_products(col, col, sq, tmp), out=low)
    return np.sqrt(low)


def _jacobi_sigma_min(a):
    """sigma_min of each matrix in an (N, m, m) stack, by one-sided Jacobi.

    Each sweep rotates every column pair (p, q) of every matrix so the
    two columns become orthogonal; at convergence the singular values
    are the column norms.  A matrix rotates a pair only while |gamma|
    exceeds m eps sqrt(alpha) sqrt(beta) (the pair's Gram entries);
    every other matrix gets t = 0, an exact no-op, so each result is
    independent of the rest of the stack.  With a threshold of eps
    alone, rounding kept a few m = 2, 4, 5 matrices rotating until the
    cap.  As in Demmel and Veselic's analysis of Jacobi, small singular
    values keep their relative accuracy.  Columns are squared, so a
    column whose norm is below about 1e-154 counts as zero.

    A pair stops rotating once either column's norm is at most
    eps ||A||_F, the rounding residue of a column that has cancelled:
    rotating that residue only shrinks it by about eps per sweep, so an
    exactly rank-one matrix kept its whole batch sweeping until the
    rotation underflowed (13 sweeps instead of 5, sigma_min 4.6e-160).
    Such a matrix returns sigma_min <= eps ||A||_F, C >= 1/eps.

    The stack is swept as a whole, every step writing into work rows
    allocated once per call (none is shared between calls, so threads
    may evaluate batches at once).  Gram entries and column norms add
    their terms first to last whatever the stack size; np.einsum added
    an (m, 1) column in another order, so a stack of one matrix got
    other last bits than the same matrix in a larger stack.

    Once a sweep rotates fewer than half of the active matrices, only
    those that rotated stay active.  This is exact, by a fixed-point
    argument: a matrix that rotated no pair in a sweep (t = 0 for each
    pair, c = 1, s = 0) leaves it with the same columns, up to the sign
    of a zero, which no Gram entry or decision sees; so the next sweep
    repeats its decisions, and it never rotates again.  The result is
    the same bits as sweeping the whole stack until no matrix rotates.
    A pair that no matrix rotates is skipped for the same reason.
    """
    m, count = a.shape[-1], a.shape[0]
    stack = a.transpose(2, 1, 0).copy()   # stack[j] is column j, (m, N)
    tol = m * _EPS
    # rotations keep ||A||_F, so the floor is fixed per matrix
    floor = _EPS * _EPS * np.einsum("jik,jik->k", stack, stack)
    cols = list(stack)
    # work rows, allocated once; the active set uses their first columns
    rows = np.empty((8, count))
    flags = np.empty((3, count), dtype=bool)
    spare = np.empty((m, count))
    out = np.empty(count)
    index = np.arange(count)    # where the active matrices sit in out
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_JACOBI_SWEEPS):
            moved, spare = _jacobi_sweep(cols, spare, floor, tol, rows,
                                         flags)
            rotated = int(np.count_nonzero(moved))
            if rotated == 0:
                break
            if 2 * rotated < len(index):
                # a matrix that rotated no pair has the same columns
                # next sweep, so it would rotate none ever again
                out[index] = _column_min(cols, rows)
                keep = np.flatnonzero(moved)
                index, floor = index[keep], floor[keep]
                cols = [col[:, keep] for col in cols]
                rows, flags = rows[:, :len(keep)], flags[:, :len(keep)]
                spare = spare[:, :len(keep)]
    out[index] = _column_min(cols, rows)
    return out


# rows whose norm lies outside [2^-200, 2^200] get no determinant bound:
# inside, ||A||^m neither overflows nor underflows, and the absolute
# error of an underflowed product is far below eps ||A||^m
_BOUND_NORMS = (2.0 ** -200, 2.0 ** 200)


def _det_rows(zt, m):
    """det of each matrix of a (m*m, N) coordinate-major stack (rows of
    the matrix read row by row), for m = 2 and 3: ad - bc, and the
    cofactor expansion along the first row."""
    if m == 2:
        a, b, c, d = zt
        return a * d - b * c
    a, b, c, d, e, f, g, h, i = zt
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _det_bound_batch(m):
    """A certified upper bound on C(A) = ||A||_F / sigma_min(A) per row,
    for m = 2 and 3 (None otherwise).

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
    25 eps relative.
    """
    if m not in (2, 3):
        return None
    scale = float(m - 1) ** ((m - 1) / 2.0)

    def bound_batch(z):
        zt = np.asarray(z, dtype=float).T
        # rows outside _BOUND_NORMS may overflow; they get +inf below
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            nrm = _norms(zt)
            num = nrm * nrm
            if m == 3:
                num *= nrm
            low = np.abs(_det_rows(zt, m))
            low -= 8.0 * _EPS * num
            out = num / (scale * low)
        ok = low > 0.0
        ok &= nrm > _BOUND_NORMS[0]
        ok &= nrm < _BOUND_NORMS[1]
        out[~ok] = math.inf
        return out

    return bound_batch


def _ratio(num, den):
    if den == 0.0:
        return math.inf
    return num / den


def hyperplane_problem(n):
    """Sigma = {x_0 = 0} in R^{n+1}; C(x) = ||x|| / |x_0|, degree 1."""
    if int(n) != n or n < 1:
        raise ValueError("n must be a positive integer")
    n = int(n)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return _ratio(float(np.linalg.norm(x)), abs(float(x[0])))

    def evaluate_batch(z):
        z = np.asarray(z, dtype=float)
        with np.errstate(divide="ignore"):
            return _norms(z.T) / np.abs(z[:, 0])

    ill = np.zeros(n + 1)
    ill[1] = 1.0
    return ConicProblem("hyperplane", n, 1, evaluate, evaluate_batch, ill)


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
    if np.max(np.abs(nrm - 1.0)) > 1e-8:
        raise ValueError("normals must be unit vectors")
    u = u / nrm[:, None]
    k, dim = u.shape
    n = dim - 1

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return _ratio(float(np.linalg.norm(x)),
                      float(np.min(np.abs(u @ x))))

    def evaluate_batch(z):
        z = np.asarray(z, dtype=float)
        # min over the k rows of the (k, N) view: the same exact minimum
        # as a reduction over the k-wide inner axis, without its
        # per-point overhead
        dist = np.abs(z @ u.T).T
        low = dist[0].copy()
        for row in dist[1:]:
            np.minimum(low, row, out=low)
        with np.errstate(divide="ignore"):
            return _norms(z.T) / low

    # unit vector orthogonal to the first normal lies on Sigma
    seed = np.zeros(dim)
    seed[0] = 1.0
    if abs(u[0] @ seed) > 0.9:
        seed = np.zeros(dim)
        seed[1] = 1.0
    ill = seed - (u[0] @ seed) * u[0]
    ill /= np.linalg.norm(ill)
    return ConicProblem("union:%d" % k, n, k, evaluate, evaluate_batch, ill)


def matrix_problem(m):
    """Square m x m matrices; Sigma = singular matrices.

    Vectors in R^{m^2} are read as matrices row by row.  By
    Eckart-Young, dist_F(A, Sigma) = sigma_min(A), so
    C(A) = ||A||_F / sigma_min(A), the scaled matrix condition number.
    n = m^2 - 1, degree m (determinant).  evaluate takes sigma_min from
    LAPACK's SVD, evaluate_batch from batched one-sided Jacobi.  For
    m = 2 and 3, bound_batch bounds C from the closed-form determinant
    (see _det_bound_batch); for m >= 4 it is None.
    """
    if int(m) != m or m < 2:
        raise ValueError("m must be an integer >= 2")
    m = int(m)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        a = x.reshape(m, m)
        return _ratio(float(np.linalg.norm(x)), smallest_singular_value(a))

    def evaluate_batch(z):
        z = np.asarray(z, dtype=float)
        s = _jacobi_sigma_min(z.reshape(-1, m, m))
        with np.errstate(divide="ignore"):
            return _norms(z.T) / s

    ill = np.zeros((m, m))
    for i in range(m - 1):
        ill[i, i] = 1.0
    ill = (ill / np.linalg.norm(ill)).reshape(-1)
    return ConicProblem("matrix:%d" % m, m * m - 1, m,
                        evaluate, evaluate_batch, ill,
                        bound_batch=_det_bound_batch(m))
