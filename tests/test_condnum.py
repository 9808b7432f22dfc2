import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest

from capsmooth import condnum
from capsmooth.condnum import (hyperplane_problem, matrix_problem,
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


def svd_alone(row, m):
    # C of one row as the SVD route computes it, on a stack of one
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a, nrm = condnum._unit_scaled(row[None])
        s = np.linalg.svd(a.reshape(1, m, m), compute_uv=False)[0, -1]
        return math.inf if s == 0.0 else nrm[0] / s


def closed_route(z, m):
    # which rows of z the closed form serves, once scaled: bound within
    # the cut and within _RANK_ONE_RATIO times the closed form's C
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z, nrm = condnum._unit_scaled(z)
        det, first = condnum._det_parts(z.T, m)
        c = nrm / condnum._closed_sigma_min(z.T, nrm, det, first)
        return (condnum._det_bound(nrm, det, m)
                <= np.minimum(condnum._CLOSED_CUT,
                              condnum._RANK_ONE_RATIO * c))


def far_from_unit_norm(p, dist):
    """p.evaluate on rows scaled by 1e-200 ... 1e200, and p.evaluate_batch
    on the five scaled copies of a row at once, without a warning,
    against the scaled row's C at 40 digits (||x|| / dist(x), dist
    taking the row's entries as mpmath numbers): the norm of four
    squares and one division, within 2 eps C."""
    rows = np.concatenate(([[0.5, 1.0, -2.0, 0.3]],
                           rng(60).standard_normal((10, 4))))
    for row in rows:
        scaled = np.outer([1e-200, 1e-160, 1.0, 1e160, 1e200], row)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = p.evaluate_batch(scaled)
        for x, c in zip(scaled, batch):
            with mpmath.workdps(40):
                xs = [mpmath.mpf(v) for v in x]
                want = mpmath.sqrt(mpmath.fsum(v * v for v in xs)) / dist(xs)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = (p.evaluate(x), c)
            assert all(error_in_eps_c(c, want) <= 2.0 for c in got), \
                (x, got)


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

    def test_far_from_unit_norm(self):
        far_from_unit_norm(hyperplane_problem(3), lambda x: abs(x[0]))


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

    def test_rejects_nan_normal(self):
        # NaN fails the unit-norm test instead of a NaN ill_posed
        with pytest.raises(ValueError, match="unit vectors"):
            union_hyperplanes_problem([[1.0, 0.0, 0.0], [0.0, math.nan, 1.0]])

    def test_far_from_unit_norm(self):
        u = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.6, 0.0, 0.8],
                      [0.0, 0.0, 1.0, 0.0]])
        far_from_unit_norm(union_hyperplanes_problem(u), lambda x: min(
            abs(mpmath.fsum(mpmath.mpf(a) * b for a, b in zip(n, x)))
            for n in u.tolist()))

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
            assert np.isclose(svd_alone(row, 3), c, rtol=1e-12)
        # near-singular rows: the closed form and the SVD are accurate
        # to O(eps C) relative, so they may differ by that much
        z = pole_batch(6, 4096)
        batch = p.evaluate_batch(z)
        for i in np.argsort(batch)[-50:]:
            c = svd_alone(z[i], 3)
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
        nrm = np.linalg.norm(z, axis=1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            det, first = condnum._det_parts(z.T, 3)
            s = condnum._closed_sigma_min(z.T, nrm, det, first)
        assert np.array_equal(c, nrm / s)

    def test_eckart_young_perturbation(self):
        # moving distance sigma_min along the right direction reaches a
        # singular matrix, so dist(A, Sigma) <= sigma_min; equality is
        # the Eckart-Young statement tested via the evaluator
        g = rng(7)
        a = g.standard_normal((3, 3))
        u, s, vt = np.linalg.svd(a)
        drop = a - s[-1] * np.outer(u[:, -1], vt[-1])
        assert np.linalg.norm(drop) / svd_alone(drop.reshape(-1), 3) <= 1e-12
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
            c = np.array([svd_alone(x, m) for x in z])
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


def scripted_problem(bound):
    """A one-dimensional problem whose bound_batch reads column 1."""
    return condnum.ConicProblem("scripted", 1, 1, lambda z: z[:, 0],
                                np.array([0.0, 1.0]),
                                bound_batch=lambda z: bound(z[:, 1]))


class TestMayReach:
    """ConicProblem.may_reach keeps the rows whose bound is not below
    min(t / 2, 2^40), and every row where that cut screens nothing."""

    def test_cut(self):
        rows = lambda b: np.column_stack((np.ones(len(b)), b))
        p = scripted_problem(lambda b: b)
        z = rows([49.0, 50.0, 51.0, math.inf])
        assert p.may_reach(z, 100.0)[:, 1].tolist() == [50.0, 51.0, math.inf]
        # the cut stops at 2^40, also for t = inf
        z = rows([2.0 ** 40 - 1.0, 2.0 ** 40, 1e15])
        for t in (1e20, math.inf):
            assert p.may_reach(z, t)[:, 1].tolist() == [2.0 ** 40, 1e15]

    def test_nan_bound_kept(self):
        p = scripted_problem(lambda b: b)
        z = np.array([[1.0, math.nan], [1.0, 3.0], [1.0, 30.0]])
        assert np.array_equal(p.may_reach(z, 20.0), z[[0, 2]],
                              equal_nan=True)

    @pytest.mark.parametrize("t", [2.0, 1.5, math.nan])
    def test_cut_at_most_one_skips_the_bound(self, t):
        # C >= 1, so a cut at or below 1 (or NaN) screens nothing
        def refuse(b):
            raise AssertionError("bound_batch called")

        z = np.ones((4, 2))
        assert scripted_problem(refuse).may_reach(z, t) is z

    @pytest.mark.parametrize("problem", [hyperplane_problem(3),
                                         matrix_problem(4)],
                             ids=["hyperplane", "matrix:4"])
    def test_no_bound_keeps_every_row(self, problem):
        z = rng(3).standard_normal((50, problem.n + 1))
        assert problem.may_reach(z, 1e9) is z


class TestJacobiSigmaMin:
    """sigma_min where the closed form does not serve: LAPACK's batched
    SVD, on every row for m >= 4, against independent references."""

    def test_against_mpmath(self):
        # the worst-conditioned rows against a 40-digit SVD: the 100
        # worst of matrix:3 pole and benchmark batches sent through the
        # SVD whole, and the 50 worst of a matrix:4 pole batch, which
        # evaluate_batch sends there; the error allowed is eps C relative
        for z, m, count in ((pole_batch(9, 16384), 3, 100),
                            (benchmark_batch(1), 3, 100),
                            (pole_batch(9, 16384, 4), 4, 50)):
            batch = _norms(z.T) / condnum._svd_sigma_min(z, m)
            if m == 4:
                assert np.array_equal(matrix_problem(4).evaluate_batch(z),
                                      batch)
            worst = max(error_in_eps_c(batch[i], mp_condition(z[i], m))
                        for i in np.argsort(batch)[-count:])
            assert worst <= 1.0, m

    def test_batch_independence(self):
        # a row's C does not depend on the rows that share its batch,
        # nor on the batch's memory order
        p = matrix_problem(3)
        z = pole_batch(10, 4096)
        whole = p.evaluate_batch(z)
        assert np.array_equal(p.evaluate_batch(z[::7]), whole[::7])
        p = matrix_problem(4)
        g = rng(10).standard_normal((1000, 16))
        whole = p.evaluate_batch(g)
        assert np.array_equal(p.evaluate_batch(g[3::5]), whole[3::5])
        assert np.array_equal(p.evaluate_batch(np.asfortranarray(g)), whole)
        # a stack of one matrix too
        assert all(p.evaluate_batch(g[i:i + 1])[0] == whole[i]
                   for i in range(0, 1000, 25))

    def test_singular_inputs(self):
        p = matrix_problem(3)
        g = rng(11)
        zero_col = g.standard_normal((3, 3))
        zero_col[:, 1] = 0.0
        # small-integer outer products are exactly rank one; rounding
        # leaves LAPACK a residue of at most eps ||A||, often exactly 0
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
        a = rng(12 + m).standard_normal((500, m * m))
        nrm = _norms(a.T)
        got = nrm / matrix_problem(m).evaluate_batch(a)
        want = nrm / np.array([svd_alone(x, m) for x in a])
        assert np.max(np.abs(got - want)) <= 1e-14

    @pytest.mark.parametrize("m", [3, 4, "hyperplane", "union"])
    def test_non_finite_rows(self, m):
        # a NaN or inf entry gives its row NaN, and the zero row, which
        # lies on Sigma, +inf, in every instance and without a warning;
        # the matrix SVD skips the NaN rows, where it would raise for the
        # whole stack.  The other rows keep their bits.  A near rank-one
        # row sends the matrix:3 batch to the SVD
        if m == "hyperplane":
            p = hyperplane_problem(3)
        elif m == "union":
            p = union_hyperplanes_problem(np.eye(4)[:3])
        else:
            p = matrix_problem(m)
        if isinstance(m, int):
            z = pole_batch(14, 64, m)
            z[5] = np.outer(np.arange(1.0, m + 1.0),
                            np.arange(2.0, m + 2.0)).reshape(-1)
        else:
            z = AdversarialLaw(Cap(p.ill_posed, 0.5), 1.5).sample(rng(14),
                                                                  size=64)
        want = p.evaluate_batch(z)
        bad = [0, 9, 17, 30, 41]
        z[0, 0] = math.nan
        z[9, 1] = math.inf
        z[17, -1] = -math.inf
        z[30] = math.inf
        z[41, 2], z[41, 3] = math.nan, math.inf
        z[50] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = p.evaluate_batch(z)
            # one row at a time too, and the batch's C-ordered copy
            assert all(math.isnan(p.evaluate(z[i])) for i in bad)
            assert p.evaluate(z[50]) == math.inf
            assert np.array_equal(p.evaluate_batch(np.ascontiguousarray(z)),
                                  c, equal_nan=True)
        assert np.all(np.isnan(c[bad]))
        assert c[50] == math.inf
        keep = np.setdiff1d(np.arange(len(z)), bad + [50])
        assert np.array_equal(c[keep], want[keep])
        if isinstance(m, int):
            assert c[5] == want[5] >= 1.0 / EPS

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_far_from_unit_norm(self, m):
        # rows scaled by 1e-200 ... 1e200 against the unscaled row's
        # 40-digit C, batch and scalar, without a warning: the eps C rule
        # with C held at least at 4 (see TestClosedForm.test_bound_rows)
        p = matrix_problem(m)
        x = rng(70 + m).standard_normal((10, m * m))
        for row in x:
            want = mp_condition(row, m)
            tol = max(1.0, 4.0 / float(want))
            for scale in (1e-200, 1e-160, 1e160, 1e200):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = (p.evaluate(scale * row),
                           p.evaluate_batch(scale * row[None])[0])
                assert all(error_in_eps_c(c, want) <= tol for c in got), \
                    (scale, got)

    def test_threads_share_no_rows(self):
        # eight threads evaluate at once; each gets the bits of a
        # sequential run: matrix:3 pole-law rows take the closed form,
        # matrix:4 rows the SVD
        for m in (3, 4):
            batches = [pole_batch(40 + i, 4096, m) for i in range(8)]
            evaluate = matrix_problem(m).evaluate_batch
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
    and from the SVD on the rows whose determinant bound exceeds the
    cut or 64 times the closed form's C."""

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
        # aside, either meets the eps C rule or is the SVD route's C of
        # that row alone.  Below C = 4 the rule asks less than the
        # rounding of the norm, of the last division and of a few more
        # operations, so C is held at least at 4
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
                want = svd_alone(z[i], m)
                assert c[i] == want or (c[i] != c[i] and want != want), \
                    (name, i)
            if name in ("singular", "rank_one"):
                assert not closed.any()

    @pytest.mark.parametrize("m", [2, 3])
    def test_near_rank_one(self, m):
        # Gaussian rank-one matrices 1e-1 ... 1e-10 away: the determinant
        # and the minors cancel, and the closed form keeps only its
        # derived bound, 8 eps B relative with B the determinant bound
        # (for m = 3 that was up to 11 eps C here); rows with B > 64 C
        # take the SVD, so every row meets the eps C rule
        p = matrix_problem(m)
        g = rng(60 + m)
        a = np.einsum("ni,nj->nij", g.standard_normal((400, m)),
                      g.standard_normal((400, m))).reshape(-1, m * m)
        size = 10.0 ** -np.repeat(np.arange(1, 11), 40)
        z = a + size[:, None] * g.standard_normal(a.shape)
        c = p.evaluate_batch(z)
        assert 0 < np.count_nonzero(closed_route(z, m)) < len(z)
        for i in range(len(z)):
            assert error_in_eps_c(c[i], mp_condition(z[i], m)) <= 1.0, i

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
        # the SVD serves only the rows the closed form does not
        calls = []
        svd = condnum._svd_sigma_min

        def counted(z, m):
            calls.append(len(z))
            return svd(z, m)

        monkeypatch.setattr(condnum, "_svd_sigma_min", counted)
        p = matrix_problem(m)
        z = pole_batch(11, 4096, m)
        z[::97] = np.outer(np.arange(1.0, m + 1.0),
                           np.arange(2.0, m + 2.0)).reshape(-1)
        p.evaluate_batch(z)
        assert calls == [np.count_nonzero(~closed_route(z, m))]
        assert calls[0] >= len(z[::97])
        calls.clear()
        p.evaluate_batch(z[1:97])
        assert calls == [0]

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


def test_union_needs_a_2d_array_of_normals():
    with pytest.raises(ValueError, match="array of normals"):
        union_hyperplanes_problem(np.ones(4))
