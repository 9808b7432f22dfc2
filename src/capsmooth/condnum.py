"""Conic condition numbers of the form C(x) = ||x|| / dist(x, Sigma).

Sigma is a cone of ill-posed inputs in R^{n+1}; both numerator and
denominator are Euclidean, so C is scale invariant and descends to
projective space.  On unit vectors, dist(x, Sigma) agrees with the
projective distance to the projectivization of Sigma, and C(x) is the
reciprocal of that distance.  C is +inf exactly on Sigma.

Three instances are provided: a single hyperplane, a finite union of
hyperplanes, and square matrices with Sigma the singular ones, where
dist_F(A, Sigma) = sigma_min(A) by the Eckart-Young theorem.  Matrix
batches get sigma_min from one-sided Jacobi run on the whole stack at
once; the scalar path stays on LAPACK's SVD and is the independent
reference the batch path is tested against.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

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
    unit vector lying on Sigma.
    """
    name: str
    n: int
    degree: int
    evaluate: Callable[[np.ndarray], float]
    evaluate_batch: Callable[[np.ndarray], np.ndarray]
    ill_posed: Optional[np.ndarray] = field(default=None, repr=False)


def smallest_singular_value(a):
    """sigma_min of a square matrix, by SVD."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix, got shape %s"
                         % (a.shape,))
    return float(np.linalg.svd(a, compute_uv=False)[-1])


# one-sided Jacobi: a cap on sweeps (3x3 batches converge in 5 or 6)
_JACOBI_SWEEPS = 30
_EPS = np.finfo(float).eps


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
    """
    m = a.shape[-1]
    cols = a.transpose(2, 1, 0).copy()   # cols[j] is column j, (m, N)
    tol = m * _EPS
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_JACOBI_SWEEPS):
            moved = np.zeros(cols.shape[2], dtype=bool)
            for p in range(m - 1):
                for q in range(p + 1, m):
                    cp, cq = cols[p], cols[q]
                    alpha = np.einsum("ij,ij->j", cp, cp)
                    beta = np.einsum("ij,ij->j", cq, cq)
                    gamma = np.einsum("ij,ij->j", cp, cq)
                    zeta = (beta - alpha) / (2.0 * gamma)
                    t = np.copysign(1.0, zeta) / (
                        np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                    rot = np.abs(gamma) > tol * np.sqrt(alpha) * np.sqrt(beta)
                    t = np.where(rot, t, 0.0)
                    c = 1.0 / np.sqrt(1.0 + t * t)
                    s = c * t
                    cols[p], cols[q] = c * cp - s * cq, s * cp + c * cq
                    moved |= t != 0.0
            if not moved.any():
                break
    return np.sqrt(np.min(np.einsum("jik,jik->jk", cols, cols), axis=0))


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
            return np.linalg.norm(z, axis=1) / np.abs(z[:, 0])

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
        with np.errstate(divide="ignore"):
            return (np.linalg.norm(z, axis=1)
                    / np.min(np.abs(z @ u.T), axis=1))

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
    LAPACK's SVD, evaluate_batch from batched one-sided Jacobi.
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
            return np.linalg.norm(z, axis=1) / s

    ill = np.zeros((m, m))
    for i in range(m - 1):
        ill[i, i] = 1.0
    ill = (ill / np.linalg.norm(ill)).reshape(-1)
    return ConicProblem("matrix:%d" % m, m * m - 1, m,
                        evaluate, evaluate_batch, ill)
