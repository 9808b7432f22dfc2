import math
import warnings

import mpmath
import numpy as np
import pytest

from capsmooth.condnum import (_jacobi_sigma_min, hyperplane_problem,
                               matrix_problem, smallest_singular_value,
                               union_hyperplanes_problem)
from capsmooth.distributions import AdversarialLaw, Cap
from capsmooth.geometry import normalize

EPS = np.finfo(float).eps


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0],
                                                             dtype=np.uint64)))


def pole_batch(seed, size):
    # matrix:3 pole law at the ill-posed input: C reaches 1e4 to 1e6
    p = matrix_problem(3)
    law = AdversarialLaw(Cap(p.ill_posed, 0.5), 4.0)
    return law.sample(rng(seed), size=size)


class TestSmallestSingularValue:
    def test_diagonal(self):
        assert smallest_singular_value(np.diag([3.0, 2.0, 1.0])) == 1.0

    def test_singular(self):
        a = np.outer([1.0, 2.0], [3.0, 4.0])
        assert smallest_singular_value(a) <= 1e-12

    def test_orthogonal_invariance(self):
        g = rng(1)
        a = g.standard_normal((4, 4))
        q, _ = np.linalg.qr(g.standard_normal((4, 4)))
        assert np.isclose(smallest_singular_value(q @ a),
                          smallest_singular_value(a), rtol=1e-12)

    def test_eigen_oracle(self):
        # sigma_min^2 is the smallest eigenvalue of A^T A
        g = rng(2)
        for _ in range(200):
            m = int(g.integers(2, 7))
            a = g.standard_normal((m, m))
            s = smallest_singular_value(a)
            lam = float(np.linalg.eigvalsh(a.T @ a)[0])
            assert abs(s - math.sqrt(max(lam, 0.0))) <= 1e-10

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            smallest_singular_value(np.ones((2, 3)))


class TestHyperplane:
    def test_metadata(self):
        p = hyperplane_problem(3)
        assert p.n == 3 and p.degree == 1
        assert np.linalg.norm(p.ill_posed) == 1.0

    def test_values(self):
        p = hyperplane_problem(2)
        assert p.evaluate(np.array([1.0, 0.0, 0.0])) == 1.0
        x = normalize(np.array([1.0, 1.0, 0.0]))
        assert np.isclose(p.evaluate(x), math.sqrt(2.0), rtol=1e-14)
        assert p.evaluate(p.ill_posed) == math.inf

    def test_scale_invariance(self):
        p = hyperplane_problem(2)
        x = np.array([0.3, 1.0, -2.0])
        assert np.isclose(p.evaluate(x), p.evaluate(7.5 * x), rtol=1e-14)

    def test_batch_agrees(self):
        p = hyperplane_problem(4)
        g = rng(3)
        z = g.standard_normal((40, 5))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        batch = p.evaluate_batch(z)
        for row, c in zip(z, batch):
            assert np.isclose(p.evaluate(row), c, rtol=1e-13)

    def test_c_at_least_one(self):
        p = hyperplane_problem(3)
        g = rng(4)
        z = g.standard_normal((100, 4))
        assert np.all(p.evaluate_batch(z) >= 1.0)


class TestUnionHyperplanes:
    def test_metadata_and_degree(self):
        p = union_hyperplanes_problem(np.eye(4)[:3])
        assert p.n == 3 and p.degree == 3

    def test_min_over_planes(self):
        p = union_hyperplanes_problem(np.eye(3)[:2])
        v = np.array([0.6, 0.1, 0.79])
        expected = np.linalg.norm(v) / 0.1
        assert np.isclose(p.evaluate(v), expected, rtol=1e-12)
        assert np.isclose(p.evaluate(normalize(v)), expected, rtol=1e-12)

    def test_ill_posed_on_sigma(self):
        p = union_hyperplanes_problem(np.eye(5)[:4])
        assert p.evaluate(p.ill_posed) == math.inf

    def test_batch_agrees(self):
        p = union_hyperplanes_problem(np.eye(4)[:2])
        g = rng(5)
        z = g.standard_normal((30, 4))
        batch = p.evaluate_batch(z)
        for row, c in zip(z, batch):
            assert np.isclose(p.evaluate(row), c, rtol=1e-13)

    def test_rejects_non_unit_normals(self):
        with pytest.raises(ValueError):
            union_hyperplanes_problem([[2.0, 0.0, 0.0]])


class TestMatrixProblem:
    def test_metadata(self):
        p = matrix_problem(3)
        assert p.n == 8 and p.degree == 3
        assert np.isclose(np.linalg.norm(p.ill_posed), 1.0, atol=1e-15)

    def test_ill_posed_is_singular(self):
        p = matrix_problem(3)
        assert p.evaluate(p.ill_posed) == math.inf

    def test_identity_matrix(self):
        # C(I) = ||I||_F / sigma_min = sqrt(m)
        p = matrix_problem(3)
        assert np.isclose(p.evaluate(np.eye(3).reshape(-1)),
                          math.sqrt(3.0), rtol=1e-14)

    def test_known_matrix(self):
        a = np.diag([4.0, 2.0, 1.0])
        p = matrix_problem(3)
        c = p.evaluate(a.reshape(-1))
        assert np.isclose(c, math.sqrt(16 + 4 + 1) / 1.0, rtol=1e-14)

    def test_batch_agrees(self):
        p = matrix_problem(3)
        g = rng(6)
        z = g.standard_normal((25, 9))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        batch = p.evaluate_batch(z)
        for row, c in zip(z, batch):
            assert np.isclose(p.evaluate(row), c, rtol=1e-12)
        # near-singular rows: both paths are accurate to O(eps C)
        # relative, so they may differ by that much
        z = pole_batch(6, 4096)
        batch = p.evaluate_batch(z)
        for i in np.argsort(batch)[-50:]:
            c = p.evaluate(z[i])
            assert abs(batch[i] - c) <= 8.0 * EPS * c * c

    def test_eckart_young_perturbation(self):
        # moving distance sigma_min along the right direction reaches a
        # singular matrix, so dist(A, Sigma) <= sigma_min; equality is
        # the Eckart-Young statement tested via the evaluator
        g = rng(7)
        a = g.standard_normal((3, 3))
        u, s, vt = np.linalg.svd(a)
        drop = a - s[-1] * np.outer(u[:, -1], vt[-1])
        assert smallest_singular_value(drop) <= 1e-12
        dist = np.linalg.norm(a - drop)
        assert np.isclose(dist, s[-1], rtol=1e-12)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            matrix_problem(1)


class TestJacobiSigmaMin:
    """The batch path's one-sided Jacobi against independent references."""

    def test_against_mpmath(self):
        # the 100 worst-conditioned rows of a pole-law batch against a
        # 40-digit SVD; the error allowed is eps C relative
        p = matrix_problem(3)
        z = pole_batch(9, 16384)
        batch = p.evaluate_batch(z)
        worst = 0.0
        with mpmath.workdps(40):
            for i in np.argsort(batch)[-100:]:
                a = mpmath.matrix(z[i].reshape(3, 3).tolist())
                s = min(mpmath.svd_r(a, compute_uv=False))
                fro = mpmath.sqrt(mpmath.fsum(mpmath.mpf(x) ** 2
                                              for x in z[i]))
                c = fro / s
                rel = float(abs(mpmath.mpf(batch[i]) - c) / c)
                worst = max(worst, rel / (EPS * float(c)))
        assert worst <= 1.0

    def test_batch_independence(self):
        # a row's C does not depend on the rows that share its batch
        p = matrix_problem(3)
        z = pole_batch(10, 4096)
        whole = p.evaluate_batch(z)
        assert np.array_equal(p.evaluate_batch(z[::7]), whole[::7])
        g = rng(10).standard_normal((1000, 4, 4))
        assert np.array_equal(_jacobi_sigma_min(g[3::5]),
                              _jacobi_sigma_min(g)[3::5])

    def test_singular_inputs(self):
        p = matrix_problem(3)
        g = rng(11)
        zero_col = g.standard_normal((3, 3))
        zero_col[:, 1] = 0.0
        # small-integer outer products are exactly rank one; rounding
        # in the rotations leaves a residue of at most eps ||A|| (as in
        # LAPACK), which further sweeps usually cancel to 0
        u = g.integers(-9, 10, size=(200, 3)).astype(float)
        v = g.integers(1, 10, size=(200, 3)).astype(float)
        u[:, 0] = 1.0
        rank_one = np.einsum("ni,nj->nij", u, v).reshape(-1, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert p.evaluate_batch(p.ill_posed[None])[0] == math.inf
            assert p.evaluate_batch(zero_col.reshape(1, 9))[0] == math.inf
            c = p.evaluate_batch(rank_one)
        assert np.all(c >= 1.0 / EPS)
        assert np.any(c == math.inf)

    @pytest.mark.parametrize("m", [2, 4, 5])
    def test_agrees_with_lapack(self, m):
        a = rng(12 + m).standard_normal((500, m, m))
        got = _jacobi_sigma_min(a)
        want = np.array([smallest_singular_value(x) for x in a])
        assert np.max(np.abs(got - want)) <= 1e-14
