import math

import numpy as np
import pytest
from scipy import integrate

from capsmooth.distributions import (AdversarialLaw, Cap, RadialProfile,
                                     constant_profile, normalize_profile,
                                     uniform_law)
from capsmooth.geometry import normalize, proj_distance
from capsmooth.montecarlo import BATCH_SIZE, _batch_rng
from capsmooth.volumes import cap_integral


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0],
                                                             dtype=np.uint64)))


def e0(n):
    v = np.zeros(n + 1)
    v[0] = 1.0
    return v


class TestCap:
    def test_basic(self):
        cap = Cap(e0(3), 0.5)
        assert cap.n == 3
        assert cap.sigma == 0.5

    def test_center_renormalized(self):
        c = e0(2) * (1.0 + 5e-9)
        cap = Cap(c, 1.0)
        assert np.isclose(np.linalg.norm(cap.center), 1.0, atol=1e-15)

    def test_far_from_unit_rejected(self):
        with pytest.raises(ValueError):
            Cap(e0(2) * 1.5, 0.5)

    def test_sigma_range(self):
        Cap(e0(2), 1.0)
        for bad in (0.0, -0.5, 1.2):
            with pytest.raises(ValueError):
                Cap(e0(2), bad)


class TestRadialProfile:
    def test_constant(self):
        h = constant_profile()
        assert h.kind == "constant"
        assert h.H == 1.0
        assert h(0.3) == 1.0

    def test_tabulated_interp(self):
        h = RadialProfile("tabulated", r_grid=[0.0, 0.25, 0.5],
                          h_grid=[2.0, 1.0, 1.0], sigma=0.5)
        assert h.H == 2.0
        assert h(0.0) == 2.0
        assert np.isclose(h(0.125), 1.5)
        np.testing.assert_allclose(h(np.array([0.25, 0.5])), [1.0, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialProfile("tabulated", r_grid=[0.1, 0.5],
                          h_grid=[1.0, 1.0], sigma=0.5)  # misses r=0
        with pytest.raises(ValueError):
            RadialProfile("tabulated", r_grid=[0.0, 0.4],
                          h_grid=[1.0, 1.0], sigma=0.5)  # misses sigma
        with pytest.raises(ValueError):
            RadialProfile("tabulated", r_grid=[0.0, 0.5],
                          h_grid=[1.0, -0.1], sigma=0.5)
        with pytest.raises(ValueError):
            RadialProfile("tabulated", r_grid=[0.0, 0.5],
                          h_grid=[0.0, 1.0], sigma=0.5)  # zero at center
        with pytest.raises(ValueError):
            RadialProfile("mystery")


class TestNormalizeProfile:
    def test_callable_normalization(self):
        n, beta, sigma = 4, 1.0, 0.5
        prof = normalize_profile(lambda r: 1.0 + r, n, beta, sigma)
        assert prof.kind == "tabulated"
        # frozen: sup of the normalized profile
        assert np.isclose(prof.H, 1.0880661001795466, rtol=1e-12)
        assert prof.normalization_residual <= 1e-14

        # independent check: weighted integral equals I_{n-beta}(sigma)
        m = n - beta
        val, _ = integrate.quad(
            lambda r: prof(r) * r ** (m - 1.0) / math.sqrt(1.0 - r * r),
            0.0, sigma, epsabs=1e-14, epsrel=1e-12)
        assert np.isclose(val, cap_integral(m, sigma), rtol=1e-10)

    def test_table_input(self):
        table = np.array([[0.0, 1.0], [0.3, 1.0], [0.6, 0.5]])
        prof = normalize_profile(table, 3, 0.0, 0.6)
        val, _ = integrate.quad(
            lambda r: prof(r) * r ** 2 / math.sqrt(1.0 - r * r),
            0.0, 0.6, epsabs=1e-14, epsrel=1e-12)
        assert np.isclose(val, cap_integral(3, 0.6), rtol=1e-10)

    def test_rejects_bad_raw(self):
        with pytest.raises(ValueError):
            normalize_profile(lambda r: -1.0, 3, 0.0, 0.5)
        with pytest.raises(ValueError):
            normalize_profile(lambda r: 0.0, 3, 0.0, 0.5)
        with pytest.raises(ValueError):
            normalize_profile(np.zeros((3, 3)), 3, 0.0, 0.5)
        with pytest.raises(ValueError):
            normalize_profile(lambda r: 1.0, 3, 3.0, 0.5)  # beta = n


class TestAdversarialLawConstruction:
    def test_normalization_constant(self):
        law = AdversarialLaw(Cap(e0(4), 0.5), 2.0)
        expected = cap_integral(4, 0.5) / cap_integral(2, 0.5)
        assert np.isclose(law.c, expected, rtol=1e-13)
        assert law.H == 1.0

    def test_beta_domain(self):
        cap = Cap(e0(3), 0.5)
        AdversarialLaw(cap, 0.0)
        AdversarialLaw(cap, 2.999)
        for bad in (-0.5, 3.0, 4.0):
            with pytest.raises(ValueError):
                AdversarialLaw(cap, bad)

    def test_profile_sigma_mismatch(self):
        prof = normalize_profile(lambda r: 1.0, 3, 1.0, 0.4)
        with pytest.raises(ValueError):
            AdversarialLaw(Cap(e0(3), 0.5), 1.0, prof)

    def test_increasing_weight_rejected(self):
        # with beta = 0 the full weight g equals h; an increasing h
        # violates the nonincreasing requirement
        prof = normalize_profile(lambda r: 1.0 + r, 3, 0.0, 0.5)
        with pytest.raises(ValueError):
            AdversarialLaw(Cap(e0(3), 0.5), 0.0, prof)

    def test_bump_between_grid_points_rejected(self):
        # a rise confined to one cell of a 4096-point radius grid, which
        # a check sampling g on that grid cannot see
        s = 0.5 / 4096
        a = 100 * s
        prof = RadialProfile(
            "tabulated", r_grid=[0.0, a + 0.2 * s, a + 0.5 * s, a + 0.8 * s,
                                 0.5],
            h_grid=[1.0, 1.0, 3.0, 1.0, 1.0], sigma=0.5)
        with pytest.raises(ValueError):
            AdversarialLaw(Cap(e0(3), 0.5), 0.0, prof)

    def test_pole_compensated_profile_accepted(self):
        # h grows like 1 + r but g = r^-1 (1 + r) still decreases
        prof = normalize_profile(lambda r: 1.0 + r, 3, 1.0, 0.5)
        AdversarialLaw(Cap(e0(3), 0.5), 1.0, prof)


class TestDensity:
    def test_uniform_is_one(self):
        law = uniform_law(Cap(e0(3), 0.5))
        g = rng(1)
        z = law.sample(g, size=50)
        np.testing.assert_allclose(law.density(z), np.ones(50), rtol=1e-12)

    def test_pole_at_center(self):
        law = AdversarialLaw(Cap(e0(3), 0.5), 1.5)
        assert law.density(e0(3)) == math.inf

    def test_outside_cap_rejected(self):
        law = AdversarialLaw(Cap(e0(3), 0.5), 1.0)
        outside = normalize(np.array([0.1, 1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            law.density(outside)

    def test_value_on_circle(self):
        # at radius r the density is c r^-beta h(r)
        law = AdversarialLaw(Cap(e0(2), 0.8), 1.0)
        r = 0.3
        x = math.sqrt(1 - r * r) * e0(2) + r * np.array([0.0, 1.0, 0.0])
        assert np.isclose(law.density(x), law.c / r, rtol=1e-10)


class TestRadialCdf:
    def test_constant_profile_closed_form(self):
        n, beta, sigma = 5, 2.0, 0.7
        law = AdversarialLaw(Cap(e0(n), sigma), beta)
        m = n - beta
        for rho in (0.1, 0.35, 0.7):
            expected = cap_integral(m, rho) / cap_integral(m, sigma)
            assert np.isclose(law.radial_cdf(rho), expected, rtol=1e-12)

    def test_endpoints(self):
        law = AdversarialLaw(Cap(e0(3), 0.5), 1.0)
        assert law.radial_cdf(0.0) == 0.0
        assert np.isclose(law.radial_cdf(0.5), 1.0, atol=1e-14)
        with pytest.raises(ValueError):
            law.radial_cdf(0.6)
        with pytest.raises(ValueError):
            law.radial_cdf(-0.1)

    def test_tabulated_against_quadrature(self):
        n, beta, sigma = 4, 1.5, 0.6
        prof = normalize_profile(lambda r: 2.0 - 2.0 * r, n, beta, sigma)
        law = AdversarialLaw(Cap(e0(n), sigma), beta, prof)
        m = n - beta
        norm, _ = integrate.quad(
            lambda r: prof(r) * r ** (m - 1.0) / math.sqrt(1.0 - r * r),
            0.0, sigma, epsabs=1e-14, epsrel=1e-12)
        for rho in (0.05, 0.2, 0.45, 0.6):
            val, _ = integrate.quad(
                lambda r: prof(r) * r ** (m - 1.0) / math.sqrt(1.0 - r * r),
                0.0, rho, epsabs=1e-14, epsrel=1e-12)
            assert np.isclose(law.radial_cdf(rho), val / norm, rtol=1e-9)

    def test_log_route_matches(self):
        law = AdversarialLaw(Cap(e0(4), 0.5), 1.0)
        for rho in (0.01, 0.1, 0.4):
            assert np.isclose(law.log_radial_cdf(rho),
                              math.log(law.radial_cdf(rho)), rtol=1e-12)

    def test_log_route_deep_tail(self):
        # linear route underflows, log route keeps going
        law = uniform_law(Cap(e0(32), 1.0))
        val = law.log_radial_cdf(1e-12)
        assert val < -700.0
        assert math.isfinite(val)


def _residual_points():
    uniforms = np.random.default_rng(11).random(16384)
    return np.concatenate(
        ([0.0, 1.0, 2.0 ** -53, 1.0 - 2.0 ** -53, 0.5], uniforms))


def _tabulated_law(raw, n, beta, sigma, grid_points=1025):
    prof = normalize_profile(raw, n, beta, sigma, grid_points)
    return AdversarialLaw(Cap(e0(n), sigma), beta, prof)


RESIDUAL_LAWS = {
    "constant beta 0": lambda: AdversarialLaw(Cap(e0(3), 0.5), 0.0),
    "constant beta 1.5": lambda: AdversarialLaw(Cap(e0(3), 0.5), 1.5),
    "constant beta 2.5": lambda: AdversarialLaw(Cap(e0(3), 0.5), 2.5),
    # the benchmark's tabulated law
    "2 - r/sigma": lambda: _tabulated_law(lambda r: 2.0 - r / 0.5, 8, 4.0,
                                          0.5),
    "rising 1 + r": lambda: _tabulated_law(lambda r: 1.0 + r, 4, 2.0, 0.5),
    "zero tail": lambda: _tabulated_law(
        lambda r: max(0.0, 1.0 - 2.0 * r / 0.5), 4, 1.0, 0.5, 65),
}


class TestInverseCdf:
    @pytest.mark.parametrize("beta,profile", [
        (0.0, None),
        (2.0, None),
        ("tab", "tab"),
    ])
    def test_roundtrip(self, beta, profile):
        n, sigma = 4, 0.6
        if beta == "tab":
            beta = 1.0
            profile = normalize_profile(lambda r: 2.0 - r, n, beta, sigma)
        law = AdversarialLaw(Cap(e0(n), sigma), beta, profile)
        p = np.linspace(0.0, 1.0, 41)
        r = law.inverse_radial_cdf(p)
        assert r[0] == 0.0 and r[-1] == sigma
        back = law.radial_cdf(r)
        np.testing.assert_allclose(back, p, atol=5e-14)

    @pytest.mark.parametrize("name", sorted(RESIDUAL_LAWS))
    def test_cdf_residual(self, name):
        # every sampled radius reproduces its uniform to 1e-12, and none
        # lands where h = 0
        law = RESIDUAL_LAWS[name]()
        p = _residual_points()
        r = law.inverse_radial_cdf(p)
        assert np.max(np.abs(law.radial_cdf(r) - p)) <= 1e-12
        inner = (p > 0.0) & (p < 1.0)
        assert np.all(law.profile(r[inner]) > 0.0)

    def test_top_is_end_of_support(self):
        # h vanishes on [sigma/2, sigma], so F reaches 1 at sigma/2
        law = RESIDUAL_LAWS["zero tail"]()
        assert law.inverse_radial_cdf(1.0) == 0.25

    @pytest.mark.parametrize("n,beta", [(32, 0.0), (3, 1.5), (16, 4.0)])
    def test_cdf_residual_full_cap(self, n, beta):
        # at sigma = 1 the slope of F is unbounded at r = 1, so a 1e-12
        # residual is out of reach there (3.6e-10 at n = 32); require
        # instead that no radius is off by more than the CDF step that
        # one ulp of r makes
        law = AdversarialLaw(Cap(e0(n), 1.0), beta)
        p = _residual_points()
        r = law.inverse_radial_cdf(p)
        f = law.radial_cdf(r)
        up = law.radial_cdf(np.minimum(np.nextafter(r, 2.0), 1.0))
        down = law.radial_cdf(np.maximum(np.nextafter(r, -1.0), 0.0))
        step = np.maximum(up - f, f - down)
        assert np.all(np.abs(f - p) <= np.maximum(1e-12, step))

    @pytest.mark.parametrize("p", [1e-12, 1e-30])
    def test_deep_tail(self, p):
        # the radii are 5.3e-25 and 5.3e-61, far below sigma * 2^-61,
        # the floor of a 60-step bisection on [0, sigma]
        law = AdversarialLaw(Cap(e0(3), 0.5), 2.5)
        back = law.log_radial_cdf(law.inverse_radial_cdf(p))
        assert np.isclose(back, math.log(p), rtol=1e-12, atol=0.0)

    def test_newton_stops(self, monkeypatch):
        # on the benchmark's law at seed 1, a point whose Newton step
        # hopped between the two ends of a few-ulp bracket kept 8 of
        # these 16 batches iterating for all 60 steps
        law = RESIDUAL_LAWS["2 - r/sigma"]()
        step = law._newton_step
        calls = []

        def counted(*args):
            calls.append(1)
            return step(*args)

        monkeypatch.setattr(law, "_newton_step", counted)
        for index in range(16):
            calls.clear()
            p = _batch_rng(1, index).random(BATCH_SIZE)
            law.inverse_radial_cdf(p)
            assert len(calls) <= 8, index

    def test_monotone(self):
        law = AdversarialLaw(Cap(e0(3), 0.5), 1.5)
        r = law.inverse_radial_cdf(np.linspace(0.01, 0.99, 50))
        assert np.all(np.diff(r) > 0)

    def test_domain(self):
        law = uniform_law(Cap(e0(2), 0.5))
        with pytest.raises(ValueError):
            law.inverse_radial_cdf(1.1)
        with pytest.raises(ValueError):
            law.inverse_radial_cdf(-0.01)


class TestSampling:
    def test_shapes_and_support(self):
        law = AdversarialLaw(Cap(e0(3), 0.5), 1.5)
        z1 = law.sample(rng(2))
        assert z1.shape == (4,)
        z = law.sample(rng(2), size=500)
        assert z.shape == (500, 4)
        np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0,
                                   atol=1e-12)
        r = proj_distance(z, law.cap.center)
        assert np.all(r <= 0.5 + 1e-12)

    def test_deterministic(self):
        law = AdversarialLaw(Cap(e0(2), 1.0), 0.5)
        a = law.sample(rng(3), size=10)
        b = law.sample(rng(3), size=10)
        np.testing.assert_array_equal(a, b)

    def test_empirical_cdf_tracks_radial_cdf(self):
        law = AdversarialLaw(Cap(e0(3), 0.8), 2.0)
        z = law.sample(rng(4), size=4000)
        r = proj_distance(z, law.cap.center)
        for rho in (0.1, 0.3, 0.6):
            emp = float(np.mean(r <= rho))
            assert abs(emp - law.radial_cdf(rho)) < 0.03

    def test_off_axis_center(self):
        center = normalize(np.ones(5))
        law = AdversarialLaw(Cap(center, 0.4), 1.0)
        z = law.sample(rng(5), size=200)
        r = proj_distance(z, center)
        assert np.all(r <= 0.4 + 1e-12)

    def test_direction_isotropy(self):
        # tangent components should have mean ~ 0 in every coordinate
        law = uniform_law(Cap(e0(4), 0.9))
        z = law.sample(rng(7), size=8000)
        tangent_mean = np.mean(z[:, 1:], axis=0)
        assert np.all(np.abs(tangent_mean) < 0.02)
