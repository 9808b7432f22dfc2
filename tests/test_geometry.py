import numpy as np
import pytest
from scipy import stats

from capsmooth.condnum import hyperplane_problem
from capsmooth.distributions import AdversarialLaw, Cap
from capsmooth.geometry import (geodesic_point, normalize, proj_distance,
                                tangent_direction)

EPS = np.finfo(float).eps


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0],
                                                             dtype=np.uint64)))


class TestNormalize:
    def test_unit_output(self):
        v = np.array([3.0, 4.0])
        u = normalize(v)
        assert np.isclose(np.linalg.norm(u), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(u, [0.6, 0.8])

    def test_preserves_direction_and_sign(self):
        u = normalize(np.array([-2.0, 0.0, 0.0]))
        np.testing.assert_array_equal(u, [-1.0, 0.0, 0.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            normalize(np.zeros(3))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            normalize(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            normalize(np.array([1.0, np.inf]))

    def test_matrix_rejected(self):
        with pytest.raises(ValueError):
            normalize(np.eye(3))


def _distance(x, y):
    """proj_distance of one point x, passed as a batch of one row."""
    d, = proj_distance(np.asarray(x)[None], y)
    return d


class TestProjDistance:
    def test_identical_points(self):
        x = normalize(np.array([1.0, 2.0, 2.0]))
        assert _distance(x, x) <= 1e-15

    def test_antipodal_is_same_projective_point(self):
        x = normalize(np.array([1.0, 2.0, 2.0]))
        assert _distance(x, -x) <= 1e-15

    def test_orthogonal(self):
        e0, e1 = np.eye(2)
        assert _distance(e0, e1) == 1.0

    def test_45_degrees(self):
        x = normalize(np.array([1.0, 1.0]))
        e0 = np.array([1.0, 0.0])
        assert np.isclose(_distance(x, e0), np.sqrt(0.5), atol=1e-15)

    def test_symmetry(self):
        g = rng(3)
        for _ in range(50):
            x = normalize(g.standard_normal(5))
            y = normalize(g.standard_normal(5))
            assert np.isclose(_distance(x, y), _distance(y, x),
                              rtol=0, atol=1e-15)

    def test_batch_matches_scalar(self):
        g = rng(4)
        y = normalize(g.standard_normal(4))
        xs = g.standard_normal((20, 4))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        batch = proj_distance(xs, y)
        assert batch.shape == (20,)
        for row, d in zip(xs, batch):
            assert np.isclose(_distance(row, y), d, rtol=0, atol=1e-15)

    def test_range(self):
        g = rng(5)
        xs = g.standard_normal((200, 3))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        d = proj_distance(xs, xs[0])
        assert np.all(d >= 0.0) and np.all(d <= 1.0)

    # the orthogonal-complement formula stays accurate where the naive
    # sqrt(1 - <x,y>^2) loses half its digits
    def test_small_angle_accuracy(self):
        e0 = np.array([1.0, 0.0, 0.0])
        for t in (1e-7, 1e-9, 1e-12):
            x = normalize(np.array([1.0, t, 0.0]))
            d = _distance(x, e0)
            expected = t / np.sqrt(1.0 + t * t)
            assert np.isclose(d, expected, rtol=1e-12, atol=0)


class TestTangentDirection:
    def test_unit_and_orthogonal(self):
        g = rng(7)
        a = normalize(np.array([1.0, -1.0, 2.0, 0.5]))
        for _ in range(25):
            u, = tangent_direction(a, g, size=1)
            assert np.isclose(np.linalg.norm(u), 1.0, atol=1e-12)
            assert abs(u @ a) <= 1e-12

    def test_batch_shape(self):
        g = rng(8)
        a = np.eye(3)[0]
        u = tangent_direction(a, g, size=10)
        assert u.shape == (10, 3)
        np.testing.assert_allclose(np.linalg.norm(u, axis=1), 1.0,
                                   atol=1e-12)
        np.testing.assert_allclose(u @ a, 0.0, atol=1e-12)

    def test_deterministic_given_stream(self):
        a = np.eye(4)[0]
        u1 = tangent_direction(a, rng(9), size=5)
        u2 = tangent_direction(a, rng(9), size=5)
        np.testing.assert_array_equal(u1, u2)

    # points whose k - 1 gaussians have norm below 1e-12 (zero, or tiny)
    # must be redrawn, in order, from the draws that follow; k = 4 draws
    # no gaussians, so the redraw runs at k = 5
    @pytest.mark.parametrize("a", [np.eye(5)[1],
                                   np.array([0.0, 0.6, 0.8, 0.0, 0.0])])
    def test_redraws_zero_residual_rows(self, a):
        first = rng(12).standard_normal((5, 4))
        first[1], first[3] = 0.0, [1e-13, -2e-13, 3e-13, 0.0]
        second = rng(13).standard_normal((2, 4))
        second[0] = [0.0, 9e-13, 0.0, -1e-13]
        third = rng(14).standard_normal((1, 4))
        stub = _Scripted(first, second, third)
        u = tangent_direction(a, stub, size=5)
        assert stub.shapes == [(5, 4), (2, 4), (1, 4)]
        expected = _ref_unit_tangent(
            a, np.stack([first[0], third[0], first[2], second[1],
                         first[4]]))
        np.testing.assert_array_equal(u, expected)
        np.testing.assert_array_equal(
            u, _ref_tangent_direction(a, _Scripted(first, second, third), 5))
        np.testing.assert_allclose(np.linalg.norm(u, axis=1), 1.0,
                                   atol=1e-12)
        np.testing.assert_allclose(u @ a, 0.0, atol=1e-12)

    def test_redraws_zero_residual_single(self):
        a = np.eye(5)[0]
        good = rng(15).standard_normal((1, 4))
        stub = _Scripted(np.zeros((1, 4)), np.full((1, 4), 4e-13), good)
        u = tangent_direction(a, stub, size=1)
        assert stub.shapes == [(1, 4)] * 3
        assert u.shape == (1, 5)
        np.testing.assert_array_equal(u, _ref_unit_tangent(a, good))
        assert np.isclose(np.linalg.norm(u), 1.0, atol=1e-12)
        assert abs(u[0] @ a) <= 1e-12
        # the size has no default: a single draw is a batch of one
        with pytest.raises(TypeError, match="size"):
            tangent_direction(a, rng(15))

    @pytest.mark.parametrize("a", [np.eye(2)[1], normalize([3.0, -4.0])])
    def test_circle(self, a):
        # k = 2: one gaussian per point, and the tangent line's two unit
        # vectors, each drawn about half the time
        u = tangent_direction(a, rng(17), size=4000)
        perp = np.array([-a[1], a[0]])
        np.testing.assert_allclose(np.abs(u @ perp), 1.0, atol=1e-15)
        assert abs(np.mean(u @ perp > 0.0) - 0.5) < 0.03

    def test_rejects_a_single_coordinate(self):
        with pytest.raises(ValueError):
            tangent_direction(np.ones(1), rng(18), size=1)


class TestDirectionLaw:
    """(w . u)^2 for a fixed unit w orthogonal to a, u uniform on the unit
    sphere of a^perp (dimension k - 1), follows Beta(1/2, (k - 2) / 2).
    The centres have their largest entry last, positive at k = 3 and 9
    and negative at k = 4, so the reflector moves every coordinate."""

    N = 100000

    @staticmethod
    def frame(k):
        a = normalize([(-1.0) ** j * (j + 1.0) for j in range(k)])
        v = np.eye(k)[0] + np.eye(k)[1]
        w = normalize(v - (v @ a) * a)
        return a, w

    def statistic(self, a, w, k, seed):
        u = tangent_direction(a, rng(seed), size=self.N)
        return stats.kstest(np.square(u @ w), "beta",
                            args=(0.5, 0.5 * (k - 2))).statistic

    @pytest.mark.parametrize("k", [3, 4, 9])
    def test_ks(self, k):
        a, w = self.frame(k)
        assert self.statistic(a, w, k, 20 + k) <= 1.63 / np.sqrt(self.N)

    @pytest.mark.parametrize("k", [3, 4, 9])
    def test_control_wrong_reflector(self, k):
        # the reflector of b = (a + w) / sqrt(2) draws u uniform on b^perp,
        # where (w . u)^2 is half the law's
        a, w = self.frame(k)
        b = normalize(a + w)
        assert self.statistic(b, w, k, 20 + k) > 1.63 / np.sqrt(self.N)

    def test_control_disk_without_rejection(self):
        # k = 4 maps a point of the unit disk onto the 2-sphere; square
        # points pulled radially into the disk, (x, y) / max(1, sqrt(s)),
        # are all kept, and crowd the rim, the sphere's far pole
        a, w = self.frame(4)
        u = tangent_direction(a, _PulledIntoDisk(rng(24)), size=self.N)
        stat = stats.kstest(np.square(u @ w), "beta",
                            args=(0.5, 1.0)).statistic
        assert stat > 1.63 / np.sqrt(self.N)


class TestGeodesicPoint:
    def setup_method(self):
        g = rng(10)
        self.a = normalize(g.standard_normal(5))
        self.u = tangent_direction(self.a, g, size=1)

    def test_r_zero_gives_anchor(self):
        np.testing.assert_allclose(geodesic_point(self.a, self.u, 0.0),
                                   self.a[None], atol=1e-15)

    def test_r_one_gives_direction(self):
        np.testing.assert_allclose(geodesic_point(self.a, self.u, 1.0),
                                   self.u, atol=1e-15)

    def test_distance_roundtrip(self):
        for r in (1e-8, 0.1, 0.5, 0.9, 0.999):
            x = geodesic_point(self.a, self.u, r)
            assert np.isclose(np.linalg.norm(x), 1.0, atol=1e-14)
            assert np.isclose(proj_distance(x, self.a)[0], r, rtol=0,
                              atol=1e-12)

    def test_batch(self):
        g = rng(11)
        us = tangent_direction(self.a, g, size=7)
        rs = np.linspace(0.0, 1.0, 7)
        xs = geodesic_point(self.a, us, rs)
        assert xs.shape == (7, 5)
        np.testing.assert_allclose(proj_distance(xs, self.a), rs, atol=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            geodesic_point(self.a * 2.0, self.u, 0.5)
        with pytest.raises(ValueError):
            geodesic_point(self.a, self.a[None], 0.5)  # not orthogonal
        with pytest.raises(ValueError):
            geodesic_point(self.a, self.u, 1.5)
        with pytest.raises(ValueError):
            geodesic_point(self.a, self.u, -0.1)

    # a batch is read through its transpose, so each check must fire on
    # C-ordered and on F-ordered (N, k) directions alike
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("fault", [
        "non-unit u", "nan in u", "u not orthogonal", "r above 1",
        "r below 0", "nan in r"])
    def test_rejects_bad_batches(self, order, fault):
        us = np.array(tangent_direction(self.a, rng(16), size=6),
                      order="C")
        rs = np.linspace(0.0, 1.0, 6)
        if fault == "non-unit u":
            us[2] *= 1.0 + 1e-6
        elif fault == "nan in u":
            us[4, 1] = np.nan
        elif fault == "u not orthogonal":
            us[3] = self.a
        elif fault == "r above 1":
            rs[5] = 1.0 + 1e-12
        elif fault == "r below 0":
            rs[0] = -1e-300
        else:
            rs[1] = np.nan
        us = np.asarray(us, order=order)
        assert us.flags[order + "_CONTIGUOUS"]
        with pytest.raises(ValueError):
            geodesic_point(self.a, us, rs)


class _Scripted:
    """Stands in for a Generator: hands out prepared gaussian blocks in
    order and records the shape each draw asked for."""

    def __init__(self, *blocks):
        self.blocks = [np.array(b, dtype=float) for b in blocks]
        self.shapes = []

    def standard_normal(self, shape):
        self.shapes.append(tuple(shape))
        block = self.blocks.pop(0)
        assert block.shape == tuple(shape)
        return block


class _PulledIntoDisk:
    """Stands in for a Generator whose uniform pairs, rescaled to
    [-1, 1)^2, already lie in the unit disk: each is pulled radially in,
    so the disk rejection keeps every one, and the disk is not covered
    uniformly."""

    def __init__(self, rng):
        self.rng = rng

    def random(self, shape):
        xy = 2.0 * self.rng.random(shape) - 1.0
        xy /= np.maximum(1.0, np.linalg.norm(xy, axis=1))[:, None]
        return 0.5 * (xy + 1.0)


# Test-only reference: the row-major formulas of the coordinate-major
# code.  Each reduces along the inner axis of an (N, k) array.

def _ref_reflect(a, w):
    """Rows w of unit vectors in R^(k-1), placed off coordinate
    i = argmax |a_i| and reflected into a^perp by the Householder map
    that sends e_i to -sign(a_i) a."""
    k = a.shape[0]
    i = int(np.argmax(np.abs(a)))
    rest = np.delete(np.arange(k), i)
    d = (w * a[rest]).sum(axis=1)
    u = np.empty((len(w), k))
    u[:, rest] = w - np.multiply.outer(d, a[rest] / (1.0 + abs(a[i])))
    u[:, i] = -np.sign(a[i]) * d
    return u


def _ref_unit_tangent(a, y):
    """Rows of k - 1 gaussians, normalized and reflected."""
    return _ref_reflect(a, y / np.linalg.norm(y, axis=1)[:, None])


def _ref_disk_sphere(rng, n):
    """n points of the 2-sphere by Marsaglia's map, from the kept pairs
    of (n, 2) uniform blocks: the i-th pair in the disk gives point i,
    whatever the blocks' size."""
    w = np.empty((0, 3))
    while len(w) < n:
        x, y = (2.0 * rng.random((n, 2)) - 1.0).T
        s = x * x + y * y
        x, y, s = x[s < 1.0], y[s < 1.0], s[s < 1.0]
        root = np.sqrt(1.0 - s)
        w = np.concatenate((w, np.stack(
            [2.0 * x * root, 2.0 * y * root, 1.0 - 2.0 * s], axis=1)))
    return w[:n]


def _ref_tangent_direction(a, rng, size):
    k = a.shape[0]
    if k == 4:
        return _ref_reflect(a, _ref_disk_sphere(rng, size))
    y = rng.standard_normal((size, k - 1))
    bad = np.linalg.norm(y, axis=1) < 1e-12
    while np.any(bad):
        y[bad] = rng.standard_normal((int(np.count_nonzero(bad)), k - 1))
        bad = np.linalg.norm(y, axis=1) < 1e-12
    return _ref_unit_tangent(a, y)


def _ref_geodesic_point(a, u, r):
    return np.sqrt(1.0 - r * r)[:, None] * a + r[:, None] * u


def _ref_proj_distance(x, y):
    c = x @ y
    return np.clip(np.linalg.norm(x - np.multiply.outer(c, y), axis=1),
                   0.0, 1.0)


def _ref_hyperplane_evaluate(z):
    z = np.ascontiguousarray(z)
    with np.errstate(divide="ignore"):
        return np.linalg.norm(z, axis=1) / np.abs(z[:, 0])


def _center(k, seed):
    """The pole for seed 0, otherwise a random unit vector."""
    if seed == 0:
        return np.eye(k)[0]
    return normalize(rng(100 + seed).standard_normal(k))


class TestRowMajorReference:
    SEEDS = range(5)
    N = 2000

    def _outputs(self, k, seed):
        """(new, reference) outputs of each function on shared inputs;
        batches go in both memory orders (the sampler's are F-ordered)."""
        a = _center(k, seed)
        radii = np.sqrt(rng(50 + seed).random(self.N))
        u_ref = _ref_tangent_direction(a, rng(seed), self.N)
        z_ref = _ref_geodesic_point(a, u_ref, radii)
        evaluate = hyperplane_problem(k - 1).evaluate_batch
        pairs = {
            "tangent_direction": (tangent_direction(a, rng(seed), self.N),
                                  u_ref),
            "tangent_direction one row": (
                tangent_direction(a, rng(seed), 1),
                _ref_tangent_direction(a, rng(seed), 1)),
            "geodesic_point one row": (
                geodesic_point(a, u_ref[:1], radii[:1]),
                _ref_geodesic_point(a, u_ref[:1], radii[:1])),
            "proj_distance one row": (
                proj_distance(z_ref[:1], a),
                _ref_proj_distance(z_ref[:1], a)),
        }
        for order in "CF":
            u = np.asarray(u_ref, order=order)
            z = np.asarray(z_ref, order=order)
            pairs["geodesic_point " + order] = (
                geodesic_point(a, u, radii), z_ref)
            pairs["proj_distance " + order] = (
                proj_distance(z, a), _ref_proj_distance(z_ref, a))
            pairs["evaluate_batch " + order] = (
                evaluate(z), _ref_hyperplane_evaluate(z_ref))
        return pairs

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical_at_k4(self, seed):
        for name, (new, ref) in self._outputs(4, seed).items():
            assert new.shape == ref.shape, name
            np.testing.assert_array_equal(new, ref, err_msg=name)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_within_4_eps_at_k9(self, seed):
        # the k squares of a norm, and the k - 1 terms of the direction's
        # sums, are added in order, where numpy's pairwise sum over a
        # contiguous row of 8 or more pairs them
        for name, (new, ref) in self._outputs(9, seed).items():
            assert new.shape == ref.shape, name
            tol = 4.0 * EPS * np.maximum(1.0, np.abs(ref))
            assert np.all(np.abs(new - ref) <= tol), name

    @pytest.mark.parametrize("k", [4, 9])
    def test_shapes(self, k):
        a = _center(k, 1)
        u = tangent_direction(a, rng(1), size=7)
        z = geodesic_point(a, u, np.full(7, 0.3))
        assert u.shape == z.shape == (7, k)
        assert u.flags.f_contiguous and z.flags.f_contiguous
        z_from_c = geodesic_point(a, np.ascontiguousarray(u), np.full(7, 0.3))
        assert z_from_c.flags.f_contiguous
        assert tangent_direction(a, rng(1), size=1).shape == (1, k)
        # one radius for every row gives the bits of N equal radii
        np.testing.assert_array_equal(geodesic_point(a, u, 0.3), z)
        assert proj_distance(z, a).shape == (7,)
        # a single point is a batch of one row; one vector alone is
        # refused
        with pytest.raises(TypeError, match="size"):
            tangent_direction(a, rng(1))
        with pytest.raises(ValueError, match="u must be an"):
            geodesic_point(a, u[0], 0.3)
        with pytest.raises(ValueError, match="x must be an"):
            proj_distance(z[0], a)

    @pytest.mark.parametrize("k", [4, 9])
    def test_independent_of_memory_order(self, k):
        # BLAS sums a product in an order that depends on the layout, so
        # proj_distance must hand it row-major rows; the geodesic map is
        # elementwise, so a batch of one gets its point's bits too
        a = _center(k, 2)
        u = tangent_direction(a, rng(2), size=50)
        r = np.sqrt(rng(3).random(50))
        z = geodesic_point(a, u, r)
        np.testing.assert_array_equal(
            geodesic_point(a, np.ascontiguousarray(u), r), z)
        for i in (0, 17, 49):
            one = slice(i, i + 1)
            np.testing.assert_array_equal(geodesic_point(a, u[one], r[one]),
                                          z[one])
        # a direction's bits do not depend on its batch either
        np.testing.assert_array_equal(tangent_direction(a, rng(2), size=1),
                                      u[:1])
        np.testing.assert_array_equal(
            proj_distance(np.ascontiguousarray(z), a), proj_distance(z, a))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_law_sample_bit_identical_at_k4(self, seed):
        # a sample is the radius uniforms, then the direction's disk
        # pairs, through the row-major formulas; its distances and
        # condition numbers read the F-ordered batch
        law = AdversarialLaw(Cap(_center(4, seed), 0.5), 1.5)
        a = law.cap.center
        g = rng(seed)
        r = law.inverse_radial_cdf(g.random(self.N))
        ref = _ref_geodesic_point(a, _ref_tangent_direction(a, g, self.N), r)
        z = law.sample(rng(seed), size=self.N)
        np.testing.assert_array_equal(z, ref)
        np.testing.assert_array_equal(proj_distance(z, a),
                                      _ref_proj_distance(ref, a))
        np.testing.assert_array_equal(hyperplane_problem(3).evaluate_batch(z),
                                      _ref_hyperplane_evaluate(ref))


@pytest.mark.parametrize("call,match", [
    (lambda: proj_distance(np.eye(3)[:1], np.eye(3)), "y must be a single"),
    (lambda: proj_distance(np.eye(3)[:1], np.eye(4)[0]),
     "x has dimension 3 but y has dimension 4"),
    (lambda: geodesic_point(np.eye(3)[0], np.eye(3)[1],
                            np.array([0.1, 0.2])), "u must be an"),
    (lambda: geodesic_point(np.eye(3)[0], np.eye(3)[1:2, None], 0.5),
     "u must be an"),
    (lambda: proj_distance(np.eye(3)[0], np.eye(3)[0]), "x must be an"),
    (lambda: proj_distance(np.ones((1, 1, 3)), np.eye(3)[0]),
     "x must be an")],
    ids=["2-d-y", "mismatched-dimensions", "one-direction-many-r",
         "3-d-u", "1-d-x", "3-d-x"])
def test_input_check_names_its_argument(call, match):
    with pytest.raises(ValueError, match=match):
        call()
