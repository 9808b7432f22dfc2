import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest

from capsmooth import condnum
from capsmooth.condnum import (_jacobi_sigma_min, hyperplane_problem,
                               matrix_problem, smallest_singular_value,
                               union_hyperplanes_problem)
from capsmooth.distributions import (AdversarialLaw, Cap, normalize_profile,
                                     uniform_law)
from capsmooth.geometry import _norms, normalize

EPS = np.finfo(float).eps


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0],
                                                             dtype=np.uint64)))


def pole_beta(m):
    return 4.0 if m == 3 else 1.5


def pole_batch(seed, size, m=3):
    # matrix:m pole law at the ill-posed input: C reaches 1e4 to 1e6 for
    # m = 3, 1e6 to 1e8 for m = 2
    p = matrix_problem(m)
    law = AdversarialLaw(Cap(p.ill_posed, 0.5), pole_beta(m))
    return law.sample(rng(seed), size=size)


def _ref_jacobi_sigma_min(a):
    # the whole-stack one-sided Jacobi that _jacobi_sigma_min must
    # reproduce bit for bit: a fresh array per step, every matrix swept
    # until none rotates
    m = a.shape[-1]
    cols = a.transpose(2, 1, 0).copy()
    tol = m * EPS
    floor = EPS * EPS * np.einsum("jik,jik->k", cols, cols)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(condnum._JACOBI_SWEEPS):
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
                    rot = ((np.abs(gamma)
                            > tol * np.sqrt(alpha) * np.sqrt(beta))
                           & (alpha > floor) & (beta > floor))
                    t = np.where(rot, t, 0.0)
                    c = 1.0 / np.sqrt(1.0 + t * t)
                    s = c * t
                    cols[p], cols[q] = c * cp - s * cq, s * cp + c * cq
                    moved |= t != 0.0
            if not moved.any():
                break
    return np.sqrt(np.min(np.einsum("jik,jik->jk", cols, cols), axis=0))


def benchmark_batch(seed, m=3):
    # matrix:m under the tabulated law 2 - r/sigma with the pole law's
    # beta: the benchmark's law for m = 3
    p = matrix_problem(m)
    prof = normalize_profile(lambda r: 2.0 - r / 0.5, p.n, pole_beta(m),
                             0.5, grid_points=1025)
    law = AdversarialLaw(Cap(p.ill_posed, 0.5), pole_beta(m), prof)
    return law.sample(rng(seed), size=16384)


def mp_condition(row, m):
    # C of one row by a 40-digit SVD
    with mpmath.workdps(40):
        a = mpmath.matrix(row.reshape(m, m).tolist())
        s = min(mpmath.svd_r(a, compute_uv=False))
        fro = mpmath.sqrt(mpmath.fsum(mpmath.mpf(x) ** 2 for x in row))
        return fro / s


def error_in_eps_c(c, want):
    # |c - C| / C in units of eps C, the rule of the 40-digit checks
    with mpmath.workdps(40):
        return float(abs(mpmath.mpf(c) - want) / want) / (EPS * float(want))


def jacobi_alone(row, m):
    # C of one row as the Jacobi route computes it, on a stack of one
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = _jacobi_sigma_min(row.reshape(1, m, m))[0]
        return math.inf if s == 0.0 else _norms(row[:, None])[0] / s


def closed_route(z, m):
    # which rows of z the closed form serves: bound within the cut
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return matrix_problem(m).bound_batch(z) <= condnum._CLOSED_CUT


def sweep_sizes(monkeypatch):
    # the active-set size of every sweep _jacobi_sigma_min runs
    sizes = []
    sweep = condnum._jacobi_sweep

    def counted(cols, *args):
        sizes.append(cols[0].shape[1])
        return sweep(cols, *args)

    monkeypatch.setattr(condnum, "_jacobi_sweep", counted)
    return sizes


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

    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_batch_bits_match_inner_axis_min(self, k):
        # the minimum over (k, N) rows against np.min over the k-wide
        # inner axis, on a sampled (F-ordered) batch and its C copy
        u = np.eye(4)[:k]
        p = union_hyperplanes_problem(u)
        z = AdversarialLaw(Cap(p.ill_posed, 0.5), 1.5).sample(rng(8),
                                                              size=4096)
        z[0] = p.ill_posed
        for batch in (z, np.ascontiguousarray(z)):
            with np.errstate(divide="ignore"):
                ref = (np.linalg.norm(batch, axis=1)
                       / np.min(np.abs(batch @ u.T), axis=1))
            assert np.array_equal(p.evaluate_batch(batch), ref)
        assert ref[0] == math.inf


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("make", [
    hyperplane_problem,
    lambda n: union_hyperplanes_problem(np.eye(n + 1)[:3]),
], ids=["hyperplane", "union"])
def test_batch_bits_independent_of_memory_order(make, n):
    # from 8 coordinates on, np.linalg.norm sums C-ordered rows pairwise
    # and F-ordered ones first to last; ||z|| must not depend on it
    p = make(n)
    z = uniform_law(Cap(normalize(np.ones(n + 1)), 0.5)).sample(
        rng(11), size=16384)
    assert z.flags.f_contiguous
    assert np.array_equal(p.evaluate_batch(np.ascontiguousarray(z)),
                          p.evaluate_batch(z))


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

    def test_batch_independent_of_memory_order(self):
        # ||z||_F adds its squares first to last in either order: the
        # bits a sampled F-ordered batch got from np.linalg.norm, over
        # the closed form's sigma_min, which serves every row here
        p = matrix_problem(3)
        z = pole_batch(9, 16384)
        assert z.flags.f_contiguous
        c = p.evaluate_batch(z)
        assert np.array_equal(p.evaluate_batch(np.ascontiguousarray(z)), c)
        assert np.all(closed_route(z, 3))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            nrm, det, first = condnum._det_parts(z.T, 3)
            s = condnum._closed_sigma_min(z.T, nrm, det, first)
        assert np.array_equal(c, np.linalg.norm(z, axis=1) / s)

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


def bound_rows(g, m):
    # (name, rows) of m x m matrices, read row by row, that the
    # determinant bound must hold on
    k = m * m
    ill = matrix_problem(m).ill_posed
    gauss = g.standard_normal((1000, k))
    # ill_posed plus a perturbation of size 1e-1 ... 1e-14
    size = 10.0 ** -np.repeat(np.arange(1, 15), 50)
    near = ill + size[:, None] * g.standard_normal((len(size), k))
    # sigma_min set to 1e-1 ... 1e-14 times sigma_max
    u, s, vt = np.linalg.svd(g.standard_normal((len(size), m, m)))
    s[:, -1] = s[:, 0] * size
    spectral = np.einsum("nij,nj,njk->nik", u, s, vt).reshape(-1, k)
    # a zero column, two equal rows, and small integers with a row the
    # sum of two others (twice the first for m = 2), all exact
    singular = g.standard_normal((150, m, m))
    singular[:50, :, 1] = 0.0
    singular[50:100, 1] = singular[50:100, 0]
    singular[100:] = g.integers(-9, 10, size=(50, m, m))
    singular[100:, -1] = singular[100:, 0] + singular[100:, -2]
    a = g.integers(-9, 10, size=(200, m)).astype(float)
    b = g.integers(1, 10, size=(200, m)).astype(float)
    rank_one = np.einsum("ni,nj->nij", a, b).reshape(-1, k)
    # non-unit rows from 1e-300 to 1e300: outside 2^-200 ... 2^200 the
    # bound is +inf
    scaled = (g.standard_normal((600, k))
              * 10.0 ** g.integers(-300, 301, size=600)[:, None])
    # singular rows scaled so that their products underflow: without
    # the norm range, rounding leaves det nonzero on 8 of the m = 3 rows
    singular = singular.reshape(-1, k)
    return [("gaussian", gauss), ("near", near), ("spectral", spectral),
            ("singular", singular), ("rank_one", rank_one),
            ("scaled", scaled), ("singular", singular * 2.0 ** -360)]


class TestDeterminantBound:
    """matrix:m's bound_batch never falls below C."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_bounds_lapack(self, m):
        p = matrix_problem(m)
        for name, z in bound_rows(rng(50 + m), m):
            bound = p.bound_batch(z)
            with np.errstate(over="ignore"):
                c = np.array([p.evaluate(x) for x in z])
            assert np.all(bound >= c), name
            if name in ("singular", "rank_one"):
                assert np.all(bound == math.inf), name

    @pytest.mark.parametrize("m", [2, 3])
    def test_tight_on_sampled_rows(self, m):
        # on unit rows of a uniform law the bound is finite and within a
        # factor 10 of C for most rows, so it screens
        p = matrix_problem(m)
        law = uniform_law(Cap(normalize(np.ones(m * m)), 0.5))
        z = law.sample(rng(60 + m), size=4096)
        ratio = p.bound_batch(z) / p.evaluate_batch(z)
        assert np.all(ratio >= 1.0)
        assert np.median(ratio) < 10.0

    def test_only_closed_form_sizes(self):
        assert matrix_problem(4).bound_batch is None
        assert hyperplane_problem(3).bound_batch is None
        assert union_hyperplanes_problem(np.eye(4)[:2]).bound_batch is None


class TestJacobiSigmaMin:
    """The batch path's one-sided Jacobi against independent references."""

    def test_against_mpmath(self):
        # the 100 worst-conditioned rows of a pole-law batch against a
        # 40-digit SVD; the error allowed is eps C relative
        z = pole_batch(9, 16384)
        batch = _norms(z.T) / _jacobi_sigma_min(z.reshape(-1, 3, 3))
        worst = max(error_in_eps_c(batch[i], mp_condition(z[i], 3))
                    for i in np.argsort(batch)[-100:])
        assert worst <= 1.0

    def test_batch_independence(self):
        # a row's C does not depend on the rows that share its batch
        p = matrix_problem(3)
        z = pole_batch(10, 4096)
        whole = p.evaluate_batch(z)
        assert np.array_equal(p.evaluate_batch(z[::7]), whole[::7])
        g = rng(10).standard_normal((1000, 4, 4))
        whole = _jacobi_sigma_min(g)
        assert np.array_equal(_jacobi_sigma_min(g[3::5]), whole[3::5])
        # a stack of one matrix too: np.einsum summed an (m, 1) column
        # in another order than an (m, N) one
        assert all(_jacobi_sigma_min(g[i:i + 1])[0] == whole[i]
                   for i in range(0, 1000, 25))

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

    def test_rank_one_stops(self, monkeypatch):
        # rotating the rounding residue of a cancelled column shrank it
        # by about eps per sweep, so one exactly rank-one matrix kept its
        # whole batch sweeping until the rotation underflowed
        a = np.outer([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert _jacobi_sigma_min(a[None])[0] <= EPS * np.linalg.norm(a)
        sizes = sweep_sizes(monkeypatch)
        stack = rng(13).standard_normal((16384, 3, 3))
        _jacobi_sigma_min(stack)
        clean = len(sizes)
        sizes.clear()
        stack[100] = a
        _jacobi_sigma_min(stack)
        assert len(sizes) == clean

    @pytest.mark.parametrize("m", [2, 4, 5])
    def test_agrees_with_lapack(self, m):
        a = rng(12 + m).standard_normal((500, m, m))
        got = _jacobi_sigma_min(a)
        want = np.array([smallest_singular_value(x) for x in a])
        assert np.max(np.abs(got - want)) <= 1e-14


class TestJacobiReference:
    """_jacobi_sigma_min on reused rows and a shrinking active set gives
    the bits of the whole-stack reference."""

    @pytest.mark.parametrize("m", range(2, 9))
    def test_gaussian(self, m):
        a = rng(20 + m).standard_normal((2000, m, m))
        assert np.array_equal(_jacobi_sigma_min(a), _ref_jacobi_sigma_min(a))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_law(self, seed):
        a = benchmark_batch(seed).reshape(-1, 3, 3)
        assert np.array_equal(_jacobi_sigma_min(a), _ref_jacobi_sigma_min(a))

    def test_active_set_shrinks(self, monkeypatch):
        # scaled permutation matrices have orthogonal columns and never
        # rotate: the active set drops them after sweep 1, and drops the
        # Gaussian matrices as they converge
        g = rng(30)
        perm = np.zeros((3000, 3, 3))
        for k in range(3000):
            perm[k, np.arange(3), g.permutation(3)] = g.standard_normal(3)
        a = np.concatenate((perm, g.standard_normal((1000, 3, 3))))
        a = a[g.permutation(len(a))]
        sizes = sweep_sizes(monkeypatch)
        got = _jacobi_sigma_min(a)
        assert np.array_equal(got, _ref_jacobi_sigma_min(a))
        assert sizes[:2] == [4000, 1000] and sizes[-1] < 1000

    def test_sign_step_at_signed_zero(self):
        # equal column norms make zeta = (beta - alpha) / (2 gamma) a
        # signed zero, so t = +-1: the sign bit of zeta ORed into
        # 1 / (|zeta| + sqrt(1 + zeta^2)) must give copysign's bits
        g = rng(32)
        x, y = g.standard_normal((2, 500))
        a = np.empty((1000, 2, 2))
        # columns (x, y) and +-(y, x): gamma = +-2xy
        a[:, 0, 0], a[:, 1, 0] = np.tile(x, 2), np.tile(y, 2)
        a[:500, 0, 1], a[:500, 1, 1] = y, x
        a[500:, 0, 1], a[500:, 1, 1] = -y, -x
        assert np.array_equal(_jacobi_sigma_min(a), _ref_jacobi_sigma_min(a))

    def test_singular_and_single(self):
        g = rng(31)
        zero_col = g.standard_normal((50, 3, 3))
        zero_col[:, :, 1] = 0.0
        u = g.integers(-9, 10, size=(50, 4)).astype(float)
        v = g.integers(1, 10, size=(50, 4)).astype(float)
        rank_one = np.einsum("ni,nj->nij", u, v)
        for a in (zero_col, rank_one):
            assert np.array_equal(_jacobi_sigma_min(a),
                                  _ref_jacobi_sigma_min(a))
        # one matrix against the reference run on a stack: on an
        # (m, 1) column the reference's einsum adds in another order
        for m in (2, 3, 5):
            a = g.standard_normal((40, m, m))
            want = _ref_jacobi_sigma_min(a)
            for i in range(40):
                assert _jacobi_sigma_min(a[i:i + 1])[0] == want[i]

    def test_threads_share_no_rows(self):
        # eight threads evaluate at once; each gets the bits of a
        # sequential run, so no work row is shared between calls: Jacobi
        # alone, and evaluate_batch, whose pole-law rows take the closed
        # form
        batches = [pole_batch(40 + i, 4096) for i in range(8)]
        for evaluate in (lambda z: _jacobi_sigma_min(z.reshape(-1, 3, 3)),
                         matrix_problem(3).evaluate_batch):
            want = [evaluate(z) for z in batches]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                with ThreadPoolExecutor(max_workers=8) as pool:
                    got = list(pool.map(evaluate, batches * 4))
            finally:
                sys.setswitchinterval(interval)
            assert all(np.array_equal(g, w) for g, w in zip(got, want * 4))


class TestClosedForm:
    """matrix:2 and matrix:3 evaluate_batch: sigma_min in closed form,
    and from Jacobi on the rows whose determinant bound exceeds the
    cut."""

    @pytest.mark.parametrize("m,make", [
        (2, lambda: pole_batch(9, 16384, 2)), (2, lambda: benchmark_batch(1, 2)),
        (3, lambda: pole_batch(9, 16384)), (3, lambda: benchmark_batch(1))],
        ids=["pole-2", "tabulated-2", "pole-3", "tabulated-3"])
    def test_against_mpmath(self, m, make):
        # TestJacobiSigmaMin's rule on the 100 worst-conditioned rows
        z = make()
        batch = matrix_problem(m).evaluate_batch(z)
        worst = np.argsort(batch)[-100:]
        assert np.count_nonzero(closed_route(z[worst], m)) >= 99
        assert max(error_in_eps_c(batch[i], mp_condition(z[i], m))
                   for i in worst) <= 1.0

    @pytest.mark.parametrize("m", [2, 3])
    def test_bound_rows(self, m):
        # every row of the determinant bound's families, Gaussian rows
        # aside, either meets the eps C rule or is the Jacobi route's C
        # of that row alone.  Below C = 4 the rule asks less than the
        # rounding of the norm, of the last division and of a few more
        # operations: Jacobi itself is 3.3 eps off there on Gaussian
        # rows, so C is held at least at 4
        p = matrix_problem(m)
        for name, z in bound_rows(rng(50 + m), m):
            if name == "gaussian":
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                c = p.evaluate_batch(z)
            closed = closed_route(z, m)
            for i in np.flatnonzero(closed):
                want = mp_condition(z[i], m)
                assert (error_in_eps_c(c[i], want)
                        <= max(float(want), 4.0)), (name, i)
            for i in np.flatnonzero(~closed):
                want = jacobi_alone(z[i], m)
                assert c[i] == want or (c[i] != c[i] and want != want), \
                    (name, i)
            if name in ("singular", "rank_one"):
                assert not closed.any()

    @pytest.mark.parametrize("m", [2, 3])
    def test_near_rank_one(self, m):
        # Gaussian rank-one matrices 1e-1 ... 1e-10 away: the determinant
        # and the minors cancel, and the closed form keeps its derived
        # bound, 8 eps B relative with B the determinant bound, so at
        # least sqrt(eps) below the cut (for m = 3 that is up to 11 eps C
        # here, against Jacobi's eps C); past the cut Jacobi serves
        p = matrix_problem(m)
        g = rng(60 + m)
        a = np.einsum("ni,nj->nij", g.standard_normal((400, m)),
                      g.standard_normal((400, m))).reshape(-1, m * m)
        size = 10.0 ** -np.repeat(np.arange(1, 11), 40)
        z = a + size[:, None] * g.standard_normal(a.shape)
        c, bound = p.evaluate_batch(z), p.bound_batch(z)
        closed = closed_route(z, m)
        assert 0 < np.count_nonzero(closed) < len(z)
        for i in np.flatnonzero(closed):
            want = mp_condition(z[i], m)
            rel = error_in_eps_c(c[i], want) * EPS * float(want)
            assert rel <= min(8.0 * EPS * bound[i], 2.0 ** -26), i
        assert all(c[i] == jacobi_alone(z[i], m)
                   for i in np.flatnonzero(~closed))

    def test_top_pair_meets(self):
        # sigma_2 = sigma_3 makes the two largest eigenvalues of the
        # minors' Gram matrix meet, where the trigonometric formula alone
        # kept half the digits (3.9e6 eps C); near the identity too
        g = rng(14)
        rows = []
        for k in range(120):
            u, _ = np.linalg.qr(g.standard_normal((3, 3)))
            v, _ = np.linalg.qr(g.standard_normal((3, 3)))
            gap = 10.0 ** -(k % 12)
            s = ([2.0, 1.0, 1.0 + 1e-9 * k] if k < 60
                 else [1.0 + gap, 1.0, 1.0 + 1e-3 * gap])
            rows.append(((u * s) @ v.T).reshape(-1))
        z = np.array(rows)
        assert np.all(closed_route(z, 3))
        c = matrix_problem(3).evaluate_batch(z)
        for i in range(len(z)):
            want = mp_condition(z[i], 3)
            assert error_in_eps_c(c[i], want) <= max(float(want), 4.0)

    @pytest.mark.parametrize("m", [2, 3])
    def test_jacobi_serves_only_rows_past_the_cut(self, m, monkeypatch):
        calls = []
        jacobi = condnum._jacobi_sigma_min

        def counted(a):
            calls.append(len(a))
            return jacobi(a)

        monkeypatch.setattr(condnum, "_jacobi_sigma_min", counted)
        p = matrix_problem(m)
        z = pole_batch(11, 4096, m)
        z[::97] = np.outer(np.arange(1.0, m + 1.0),
                           np.arange(2.0, m + 2.0)).reshape(-1)
        p.evaluate_batch(z)
        assert calls == [np.count_nonzero(~closed_route(z, m))]
        assert calls[0] >= len(z[::97])
        calls.clear()
        p.evaluate_batch(z[1:97])
        assert calls == []

    @pytest.mark.parametrize("m", [2, 3])
    def test_batch_independence(self, m):
        # a batch that takes both routes: near-singular pole-law rows
        # and rows 1e-12 from rank one
        p = matrix_problem(m)
        z = pole_batch(12, 4096, m)
        g = rng(13)
        a = np.einsum("ni,nj->nij", g.standard_normal((512, m)),
                      g.standard_normal((512, m))).reshape(-1, m * m)
        z[::8] = a + 1e-12 * g.standard_normal(a.shape)
        closed = closed_route(z, m)
        assert 0 < np.count_nonzero(~closed) < len(z) // 2
        whole = p.evaluate_batch(z)
        assert np.array_equal(p.evaluate_batch(z[::7]), whole[::7])
        assert all(p.evaluate_batch(z[i:i + 1])[0] == whole[i]
                   for i in range(0, len(z), 41))
