import numpy as np
import pytest

from capsmooth.geometry import (geodesic_point, normalize, proj_distance,
                                tangent_direction)


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


class TestProjDistance:
    def test_identical_points(self):
        x = normalize(np.array([1.0, 2.0, 2.0]))
        assert proj_distance(x, x) <= 1e-15

    def test_antipodal_is_same_projective_point(self):
        x = normalize(np.array([1.0, 2.0, 2.0]))
        assert proj_distance(x, -x) <= 1e-15

    def test_orthogonal(self):
        e0, e1 = np.eye(2)
        assert proj_distance(e0, e1) == 1.0

    def test_45_degrees(self):
        x = normalize(np.array([1.0, 1.0]))
        e0 = np.array([1.0, 0.0])
        assert np.isclose(proj_distance(x, e0), np.sqrt(0.5), atol=1e-15)

    def test_symmetry(self):
        g = rng(3)
        for _ in range(50):
            x = normalize(g.standard_normal(5))
            y = normalize(g.standard_normal(5))
            assert np.isclose(proj_distance(x, y), proj_distance(y, x),
                              rtol=0, atol=1e-15)

    def test_batch_matches_scalar(self):
        g = rng(4)
        y = normalize(g.standard_normal(4))
        xs = g.standard_normal((20, 4))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        batch = proj_distance(xs, y)
        assert batch.shape == (20,)
        for row, d in zip(xs, batch):
            assert np.isclose(proj_distance(row, y), d, rtol=0, atol=1e-15)

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
            d = proj_distance(x, e0)
            expected = t / np.sqrt(1.0 + t * t)
            assert np.isclose(d, expected, rtol=1e-12, atol=0)


class TestTangentDirection:
    def test_unit_and_orthogonal(self):
        g = rng(7)
        a = normalize(np.array([1.0, -1.0, 2.0, 0.5]))
        for _ in range(25):
            u = tangent_direction(a, g)
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


class TestGeodesicPoint:
    def setup_method(self):
        g = rng(10)
        self.a = normalize(g.standard_normal(5))
        self.u = tangent_direction(self.a, g)

    def test_r_zero_gives_anchor(self):
        np.testing.assert_allclose(geodesic_point(self.a, self.u, 0.0),
                                   self.a, atol=1e-15)

    def test_r_one_gives_direction(self):
        np.testing.assert_allclose(geodesic_point(self.a, self.u, 1.0),
                                   self.u, atol=1e-15)

    def test_distance_roundtrip(self):
        for r in (1e-8, 0.1, 0.5, 0.9, 0.999):
            x = geodesic_point(self.a, self.u, r)
            assert np.isclose(np.linalg.norm(x), 1.0, atol=1e-14)
            assert np.isclose(proj_distance(x, self.a), r, rtol=0,
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
            geodesic_point(self.a, self.a, 0.5)  # not orthogonal
        with pytest.raises(ValueError):
            geodesic_point(self.a, self.u, 1.5)
        with pytest.raises(ValueError):
            geodesic_point(self.a, self.u, -0.1)
