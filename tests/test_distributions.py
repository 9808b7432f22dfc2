import copy
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from scipy import integrate

from capsmooth import distributions, volumes
from capsmooth.distributions import (AdversarialLaw, Cap, RadialProfile,
                                     constant_profile, normalize_profile,
                                     uniform_law)
from capsmooth.geometry import normalize, proj_distance
from capsmooth.montecarlo import BATCH_SIZE, stream_rng
from capsmooth.volumes import cap_integral


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0],
                                                             dtype=np.uint64)))


def e0(n):
    v = np.zeros(n + 1)
    v[0] = 1.0
    return v


@pytest.fixture(autouse=True)
def fresh_kernels():
    """Laws share their betainc kernels through a process-wide cache;
    each test here starts and ends with it empty, so a test that counts
    builds, or patches the fit, builds its own kernels and leaves none
    behind."""
    distributions._KERNELS.clear()
    yield
    distributions._KERNELS.clear()


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

    def test_nan_center_rejected(self):
        # NaN fails the unit-norm test instead of reaching the sampler
        with pytest.raises(ValueError, match="unit vector"):
            Cap(np.array([1.0, math.nan, 0.0]), 0.5)

    def test_sigma_range(self):
        Cap(e0(2), 1.0)
        for bad in (0.0, -0.5, 1.2):
            with pytest.raises(ValueError):
                Cap(e0(2), bad)


class TestRadialProfile:
    def test_constant(self):
        h = constant_profile(0.5)
        assert h.kind == "constant"
        assert h.H == 1.0
        assert h(0.3) == 1.0

    def test_tabulated_interp(self):
        h = RadialProfile(r_grid=[0.0, 0.25, 0.5],
                          h_grid=[2.0, 1.0, 1.0], sigma=0.5)
        assert h.H == 2.0
        assert h(0.0) == 2.0
        assert np.isclose(h(0.125), 1.5)
        np.testing.assert_allclose(h(np.array([0.25, 0.5])), [1.0, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialProfile(r_grid=[0.1, 0.5],
                          h_grid=[1.0, 1.0], sigma=0.5)  # misses r=0
        with pytest.raises(ValueError):
            RadialProfile(r_grid=[0.0, 0.4],
                          h_grid=[1.0, 1.0], sigma=0.5)  # misses sigma
        with pytest.raises(ValueError):
            RadialProfile(r_grid=[0.0, 0.5],
                          h_grid=[1.0, -0.1], sigma=0.5)
        with pytest.raises(ValueError):
            RadialProfile(r_grid=[0.0, 0.5],
                          h_grid=[0.0, 1.0], sigma=0.5)  # zero at center

    @pytest.mark.parametrize("r_grid,h_grid,kind", [
        ([0.0, 0.5], [1.0, 1.0], "constant"),
        ([0.0, 0.5], [2.0, 2.0], "tabulated"),
        ([0.0, 0.5], [1.0, 0.5], "tabulated"),
        ([0.0, 0.25, 0.5], [1.0, 1.0, 1.0], "tabulated")])
    def test_kind_read_off_the_table(self, r_grid, h_grid, kind):
        assert RadialProfile(r_grid, h_grid, 0.5).kind == kind

    def test_nan_node_or_radius_rejected(self):
        # NaN fails the order and cover tests
        with pytest.raises(ValueError, match="strictly increasing"):
            RadialProfile(r_grid=[0.0, math.nan, 0.5],
                          h_grid=[1.0, 1.0, 1.0], sigma=0.5)
        with pytest.raises(ValueError, match="cover"):
            RadialProfile(r_grid=[0.0, 0.5],
                          h_grid=[1.0, 1.0], sigma=math.nan)


def _table_mass_error(prof, m):
    """(mass - I_m(sigma)) / I_m(sigma) in eps, for the exact mass of
    the profile's piecewise-linear table under r^(m-1) (1 - r^2)^(-1/2):
    each segment's alpha dI_m + gamma dI_(m+1) from its double nodes,
    summed with the cap integrals at 30 digits."""
    with mpmath.workdps(30):
        def cap(k, r):
            return mpmath.betainc(mpmath.mpf(k) / 2, 0.5, 0,
                                  mpmath.mpf(float(r)) ** 2) / 2
        r = [mpmath.mpf(float(v)) for v in prof.r_grid]
        h = [mpmath.mpf(float(v)) for v in prof.h_grid]
        im = [cap(m, v) for v in r]
        im1 = [cap(m + 1.0, v) for v in r]
        mass = 0
        for i in range(len(r) - 1):
            gamma = (h[i + 1] - h[i]) / (r[i + 1] - r[i])
            alpha = h[i] - gamma * r[i]
            mass += (alpha * (im[i + 1] - im[i])
                     + gamma * (im1[i + 1] - im1[i]))
        target = cap(m, prof.sigma)
        return float((mass - target) / target) / np.finfo(float).eps


# the scale is set from double segment masses, each within a few eps
# (TestBetaincHalf), summed over 1024 segments: 16 eps leaves room over
# the 0.3-1.0 eps these tables measure, and catches any scale not set
# from I_(n-beta)(sigma)
NORMALIZED_MASS_EPS = 16.0


class TestNormalizeProfile:
    def test_callable_normalization(self):
        n, beta, sigma = 4, 1.0, 0.5
        prof = normalize_profile(lambda r: 1.0 + r, n, beta, sigma)
        assert prof.kind == "tabulated"
        # frozen: sup of the normalized profile
        assert np.isclose(prof.H, 1.0880661001795466, rtol=1e-12)
        assert abs(_table_mass_error(prof, n - beta)) <= NORMALIZED_MASS_EPS

        # independent check: weighted integral equals I_{n-beta}(sigma)
        m = n - beta
        val, _ = integrate.quad(
            lambda r: prof(r) * r ** (m - 1.0) / math.sqrt(1.0 - r * r),
            0.0, sigma, epsabs=1e-14, epsrel=1e-12)
        assert np.isclose(val, cap_integral(m, sigma), rtol=1e-10)

    def test_flat_two_node_table_reads_constant(self):
        # a flat table already holds I_m(sigma), so its scale is 1 and
        # the normalized table is constant_profile's, as reports say
        prof = normalize_profile([[0.0, 1.0], [0.5, 1.0]], 3, 1.0, 0.5)
        assert prof.h_grid.tolist() == [1.0, 1.0]
        assert prof.kind == "constant"

    def test_normalized_mass_at_large_m(self):
        # m = 200, where the masses come from the engine's series at
        # large a
        prof = normalize_profile(lambda r: 2.0 - r / 0.5, 210, 10.0, 0.5)
        assert abs(_table_mass_error(prof, 200.0)) <= NORMALIZED_MASS_EPS

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
            r_grid=[0.0, a + 0.2 * s, a + 0.5 * s, a + 0.8 * s, 0.5],
            h_grid=[1.0, 1.0, 3.0, 1.0, 1.0], sigma=0.5)
        with pytest.raises(ValueError, match="nonincreasing"):
            AdversarialLaw(Cap(e0(3), 0.5), 0.0, prof)

    @pytest.mark.parametrize("beta, prof, held", [
        # a raw table: law.H would read 1.0, the uniform theorems' case
        (0.0, RadialProfile([0.0, 0.25, 0.5], [1.0, 1.0, 0.0],
                            0.5), 0.457),
        # normalized for beta = 1, used at beta = 2
        (2.0, normalize_profile(lambda r: 2.0 - r / 0.5, 3, 1.0, 0.5), 1.124)],
        ids=["raw", "other-beta"])
    def test_unnormalized_profile_rejected(self, beta, prof, held):
        with pytest.raises(ValueError, match="not normalized") as exc:
            AdversarialLaw(Cap(e0(3), 0.5), beta, prof)
        ratio = str(exc.value).split(" holds ")[1].split()[0]
        assert float(ratio) == pytest.approx(held, abs=5e-4)

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

    def test_nan_radius_rejected(self):
        law = AdversarialLaw(Cap(e0(3), 0.5), 1.0)
        for rho in (math.nan, [0.1, math.nan]):
            with pytest.raises(ValueError, match="rho must lie"):
                law.radial_cdf(rho)

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

    @pytest.mark.parametrize("sloped", [False, True])
    def test_segment_terms(self, monkeypatch, sloped):
        # on a law with no sloped segment the I_{m+1} term of a segment's
        # mass is gamma = 0 times an increment: it is not evaluated, and
        # the CDF keeps the bits of the two-term sum
        law = (_tabulated_law(lambda r: 2.0 - r / 0.5, 8, 4.0, 0.5)
               if sloped else AdversarialLaw(Cap(e0(5), 0.7), 2.0))
        rho = np.linspace(0.0, law.cap.sigma, 2001)
        idx = np.clip(np.searchsorted(law._r_nodes, rho, side="right") - 1,
                      0, len(law._r_nodes) - 2)
        im = distributions._vec_cap_integral(law._m, rho)
        im1 = distributions._vec_cap_integral(law._m + 1.0, rho)
        mass = (law._alpha[idx] * (im - law._im_nodes[idx])
                + law._gamma[idx] * (im1 - law._im1_nodes[idx]))
        want = np.clip((law._cdf_nodes[idx] + mass) / law._cdf_total,
                       0.0, 1.0)
        calls = []
        vec = distributions._vec_cap_integral

        def counted(m, r):
            calls.append(m)
            return vec(m, r)

        monkeypatch.setattr(distributions, "_vec_cap_integral", counted)
        assert np.array_equal(law.radial_cdf(rho), want)
        assert calls == ([law._m, law._m + 1.0] if sloped else [law._m])

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

    @pytest.mark.parametrize("rho", [1e-6, 1e-9])
    def test_log_route_tabulated_deep_tail(self, rho):
        # I_60(rho) is below the double range, so the linear CDF reads 0;
        # on the first segment, h = alpha_0 + gamma_0 r, and the mass is
        # alpha_0 I_60(rho) + gamma_0 I_61(rho) over the normalized total
        # I_60(sigma), here at 50 digits
        n, beta, sigma = 64, 4.0, 0.5
        law = _tabulated_law(lambda r: 2.0 - r / sigma, n, beta, sigma)
        assert law.radial_cdf(rho) == 0.0
        r1, h0, h1 = (mpmath.mpf(float(v)) for v in
                      (law.profile.r_grid[1], *law.profile.h_grid[:2]))
        with mpmath.workdps(50):
            def cap(m, r):
                return mpmath.betainc(m / 2, 0.5, 0, r ** 2) / 2

            m, x = mpmath.mpf(n - beta), mpmath.mpf(rho)
            mass = h0 * cap(m, x) + (h1 - h0) / r1 * cap(m + 1, x)
            ref = float(mpmath.log(mass / cap(m, mpmath.mpf(sigma))))
        val = law.log_radial_cdf(rho)
        eps = np.finfo(float).eps
        assert abs(val - ref) <= max(8.0 * eps * abs(ref), 64.0 * eps)

    def test_log_route_tabulated_past_first_segment(self):
        law = _tabulated_law(lambda r: 2.0 - r / 0.5, 64, 4.0, 0.5)
        assert law.log_radial_cdf(1e-3) == math.log(law.radial_cdf(1e-3))

    @pytest.mark.parametrize("nodes", [1.5, 3.7, 102.4, 1024.0])
    def test_log_route_past_underflowed_first_node(self, nodes):
        # m = 200: I_200 at the first node (4.9e-4) is below the double
        # range, so the linear CDF past it reads 0 over many segments;
        # the reference sums every segment's mass up to rho at 50 digits.
        # 1024 nodes is rho = sigma, where the reference is about 0: the
        # table is normalized with double segment masses, so its exact
        # mass misses I_200(sigma) by their rounding (about 1 eps)
        law = _tabulated_law(lambda r: 2.0 - r / 0.5, 210, 10.0, 0.5)
        r_grid, h_grid = law.profile.r_grid, law.profile.h_grid
        rho = nodes * r_grid[1]
        with mpmath.workdps(50):
            def cap(m, r):
                return mpmath.betainc(m / 2, 0.5, 0, r ** 2) / 2

            m, x = mpmath.mpf(200), mpmath.mpf(rho)
            mass = mpmath.mpf(0)
            for k in range(int(np.searchsorted(r_grid, rho))):
                a, b, ha, hb = (mpmath.mpf(float(v)) for v in
                                (r_grid[k], r_grid[k + 1], h_grid[k],
                                 h_grid[k + 1]))
                gamma = (hb - ha) / (b - a)
                b = min(b, x)
                mass += ((ha - gamma * a) * (cap(m, b) - cap(m, a))
                         + gamma * (cap(m + 1, b) - cap(m + 1, a)))
            ref = float(mpmath.log(mass / cap(m, mpmath.mpf(0.5))))
        val = law.log_radial_cdf(rho)
        eps = np.finfo(float).eps
        assert abs(val - ref) <= max(8.0 * eps * abs(ref), 64.0 * eps)

    def test_underflowed_mass_routes_to_log(self):
        # I_300(0.05) ~ 1e-393 is not a double, so the linear CDF would be
        # 0/0; it raises as inversion does, and the log route serves the
        # law: for a constant profile the CDF is
        # betainc(m/2, 1/2, rho^2) / betainc(m/2, 1/2, sigma^2), at 50 digits
        law = AdversarialLaw(Cap(e0(300), 0.05), 0.0)
        with pytest.raises(ArithmeticError, match="log_radial_cdf"):
            law.radial_cdf(0.03)
        with pytest.raises(ArithmeticError, match="double range"):
            law.radial_cdf(np.array([0.0, 0.03, 0.05]))
        with mpmath.workdps(50):
            def reg(r):
                return mpmath.betainc(150, 0.5, 0, mpmath.mpf(r) ** 2,
                                      regularized=True)
            ref = float(mpmath.log(reg(0.03) / reg(0.05)))
        val = law.log_radial_cdf(0.03)
        assert round(val, 2) == -153.25
        assert abs(val - ref) <= 8.0 * np.finfo(float).eps * abs(ref)

    def test_subnormal_mass_refused_like_zero(self):
        # I_128(0.0031623) = 7.8e-323 is a double, but a subnormal one:
        # dividing by it overflowed the bucket scale, and p * total kept
        # so few bits that 10,000 draws took 17 distinct radii.  The law
        # now builds without a warning (the module runs with warnings as
        # errors), refuses the CDF, inversion and sampling as an
        # underflowed law does, and its log CDF still serves it
        sigma = 0.0031623
        law = uniform_law(Cap(e0(128), sigma))
        assert law._cdf_total < np.finfo(float).tiny
        for call in (lambda: law.radial_cdf(0.5 * sigma),
                     lambda: law.inverse_radial_cdf(0.5),
                     lambda: law.sample(rng(), size=10)):
            with pytest.raises(ArithmeticError, match="double range"):
                call()
        with mpmath.workdps(50):
            ref = float(mpmath.log(
                mpmath.betainc(64, 0.5, 0, mpmath.mpf(0.5 * sigma) ** 2)
                / mpmath.betainc(64, 0.5, 0, mpmath.mpf(sigma) ** 2)))
        val = law.log_radial_cdf(0.5 * sigma)
        assert abs(val - ref) <= 8.0 * np.finfo(float).eps * abs(ref)
        # normalizing to that mass read H = 1.0, not 1.985, and its
        # law's sampler died with an IndexError
        with pytest.raises(ArithmeticError, match="double range"):
            normalize_profile(lambda r: 2.0 - r / sigma, 128, 0.0, sigma,
                              grid_points=5)

    def test_tiny_normal_mass_samples(self):
        # I_128(0.0042) = 2.4e-307 is normal, but count / total of its
        # 1024 segments is not a double: the bucket scale overflowed to
        # inf and inversion died with an IndexError.  The scale is held
        # below 2^1022, and each target finds the segment a search finds
        sigma = 0.0042
        law = _tabulated_law(lambda r: 2.0 - r / sigma, 128, 0.0, sigma)
        assert law._cdf_total < 1024 * np.finfo(float).tiny
        p = rng(3).random(20000)
        target = p * law._cdf_total
        want = np.clip(np.searchsorted(law._cdf_nodes, target) - 1, 0,
                       len(law._cdf_nodes) - 2)
        np.testing.assert_array_equal(law._segment_of(target), want)
        r = law.inverse_radial_cdf(p)
        assert np.all((r > 0.0) & (r <= sigma))
        assert np.max(np.abs(law.radial_cdf(r) - p)) <= 1e-12

    def test_log_route_monotone_across_first_node(self):
        law = _tabulated_law(lambda r: 2.0 - r / 0.5, 210, 10.0, 0.5)
        r1 = law.profile.r_grid[1]
        rho = [r1 * (1.0 - 1e-9), np.nextafter(r1, 0.0), r1,
               np.nextafter(r1, 1.0), r1 * (1.0 + 1e-9)]
        vals = [law.log_radial_cdf(r) for r in rho]
        assert vals[0] < vals[2] < vals[4]
        assert np.all(np.diff(vals) >= 0.0)


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
    # I_200 underflows at the first nodes, so some points certifying a
    # segment fit fall below their interval
    "m = 200": lambda: _tabulated_law(lambda r: 2.0 - r / 0.5, 210, 10.0,
                                      0.5),
    # flat on many segments, but scaled: dI_m per unit of mass is not
    # exactly 1
    "flat 65 nodes": lambda: _tabulated_law(lambda r: 1.0, 3, 1.5, 0.5, 65),
    # the kernel keeps all 13 coefficients: the last prefix its
    # certificate tries (residual 9.8e-14)
    "full-degree kernel": lambda: AdversarialLaw(Cap(e0(64), 0.99), 0.0),
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

    @pytest.mark.parametrize("name", sorted(RESIDUAL_LAWS))
    def test_segment_lookup(self, name):
        # the bucket lookup picks the segment a binary search of the
        # node masses picks, at the nodes and one ulp either side too
        law = RESIDUAL_LAWS[name]()
        nodes = law._cdf_nodes
        target = np.concatenate((
            _residual_points() * law._cdf_total, nodes,
            np.nextafter(nodes, 0.0), np.nextafter(nodes, nodes[-1])))
        target = np.clip(target, 0.0, nodes[-1])
        want = np.clip(np.searchsorted(nodes, target, side="left") - 1, 0,
                       len(nodes) - 2)
        # (a law of one segment gets one index for every target)
        got = np.broadcast_to(law._segment_of(target), want.shape)
        assert np.array_equal(got, want)

    def test_top_is_end_of_support(self):
        # h vanishes on [sigma/2, sigma], so F reaches 1 at sigma/2
        law = RESIDUAL_LAWS["zero tail"]()
        assert law.inverse_radial_cdf(1.0) == 0.25

    @pytest.mark.parametrize("n,beta", [(32, 0.0), (3, 1.5), (16, 4.0),
                                        (3, 2.5), (3, 0.0), (4, 0.0)])
    def test_cdf_residual_full_cap(self, n, beta):
        # at sigma = 1 the slope of F is unbounded at r = 1, so a 1e-12
        # residual is out of reach there (5.7e-12 at n = 32); require
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
        # these 16 batches iterating for all 60 steps.  Each step
        # evaluates the segment mass once
        law = RESIDUAL_LAWS["2 - r/sigma"]()
        mass = law._segment_mass
        calls = []

        def counted(*args):
            calls.append(1)
            return mass(*args)

        monkeypatch.setattr(law, "_segment_mass", counted)
        for index in range(16):
            calls.clear()
            p = stream_rng(1, index).random(BATCH_SIZE)
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
        with pytest.raises(ValueError):
            law.inverse_radial_cdf([0.5, math.nan])


def _kernel_law(m, sigma):
    """A constant-profile law with n - beta = m."""
    return AdversarialLaw(Cap(e0(33), sigma), 33.0 - m)


KERNEL_M = [0.5, 1.5, 3, 4, 12, 32]


class TestInverseKernel:
    """The Chebyshev kernel that replaced one betaincinv per point."""

    @pytest.mark.parametrize("a,y", [(0.25, 1e-30), (0.25, 0.4),
                                     (0.75, 2.0 ** -53), (1.5, 0.3),
                                     (6.0, 1e-20), (16.0, 1e-22),
                                     (16.0, 0.2)])
    def test_oracle_against_mpmath(self, a, y):
        # the fit's node values and certificate rest on the in-house
        # inverse of betainc; check it against a 40-digit root.  It is
        # exact up to the rounding of betainc, which x ~ y^(1/a)
        # magnifies by 1/a
        x = float(volumes._betaincinv_half(a, y))
        with mpmath.workdps(40):
            xr, beta = mpmath.mpf(x), mpmath.beta(a, 0.5)
            for _ in range(5):
                res = mpmath.betainc(a, 0.5, 0, xr, regularized=True) - y
                xr -= res * beta * xr ** (1 - a) * mpmath.sqrt(1 - xr)
            rel = abs((x - xr) / xr)
        assert rel <= 2.0 * np.finfo(float).eps * max(1.0, 1.0 / a)

    @pytest.mark.parametrize("sigma", [0.05, 0.5, 0.99])
    @pytest.mark.parametrize("m", KERNEL_M)
    def test_against_betaincinv(self, m, sigma):
        # relative error in x = r^2 within the build bound, deep tail
        # included; the reference is the in-house inverse of betainc that
        # the kernel is fitted to
        law = _kernel_law(m, sigma)
        p = _residual_points()[2:]
        p = np.concatenate((p, np.geomspace(2.0 ** -53, 1e-3, 200)))
        law.inverse_radial_cdf(p)
        kernel = law._inverse
        y = p * kernel.top
        want = volumes._betaincinv_half(0.5 * m, y)
        rel = np.abs(kernel(y) - want) / want
        assert np.max(rel) <= distributions._CHEB_TOL

    @pytest.mark.parametrize("m", KERNEL_M)
    @pytest.mark.parametrize("sigma", [0.05, 0.5, 0.99, 1.0])
    def test_first_fit_holds(self, m, sigma):
        # the fit passes its certificate on every law here, so no law
        # here falls back to the slower Halley inverse; sigma = 1 needs
        # the upper branch (the one-ulp criterion of
        # test_cdf_residual_full_cap checks it)
        law = _kernel_law(m, sigma)
        law.inverse_radial_cdf(0.5)
        fits = [f for f in (law._inverse._lower, law._inverse._upper)
                if f is not None]
        assert [f.pieces for f in fits] \
            == [distributions._CHEB_PIECES] * len(fits)
        assert (law._inverse._upper is not None) or sigma < 1.0

    @pytest.mark.parametrize("n,sigma", [
        (136, 0.05), (136, 0.5), (136, 1.0), (200, 0.05), (200, 0.5),
        (200, 1.0), (300, 0.05), (300, 0.5), (300, 1.0), (600, 0.5),
        (600, 1.0), (1000, 0.5), (1000, 1.0)])
    def test_large_m_builds(self, n, sigma):
        # q^(m/2) underflows at the lowest nodes of the lower branch from
        # m = 136 on; there psi comes from the series.  At sigma = 1 the
        # lower branch misses its certificate from m = 64 on, and the
        # Halley inverse serves it.  Above m = 2 _FIT_MAX_A no branch is
        # fitted: at n = 1000, sigma = 0.5 the fit left 1.15e-12
        law = AdversarialLaw(Cap(e0(n), sigma), 0.0)
        p = _residual_points()
        if n == 300 and sigma == 0.05:
            # I_300(0.05) ~ 1e-393: the law's own mass is not a double
            with pytest.raises(ArithmeticError, match="double range"):
                law.inverse_radial_cdf(p)
            return
        r = law.inverse_radial_cdf(p)
        fitted = n <= 2.0 * distributions._FIT_MAX_A
        assert (law._inverse._lower is not None) == (fitted and sigma < 1.0)
        f = law.radial_cdf(r)
        if sigma < 1.0:
            assert np.max(np.abs(f - p)) <= 1e-12
        else:
            # one ulp of r moves F by more than 1e-12 near r = 1, as in
            # test_cdf_residual_full_cap
            up = law.radial_cdf(np.minimum(np.nextafter(r, 2.0), 1.0))
            down = law.radial_cdf(np.maximum(np.nextafter(r, -1.0), 0.0))
            step = np.maximum(up - f, f - down)
            assert np.all(np.abs(f - p) <= np.maximum(1e-12, step))

    @pytest.mark.parametrize("p", [1e-20, 1e-100, 1e-200])
    def test_deep_tail_exponent(self, p):
        # n - beta = 1.5: 1/a = 4/3 is not a double, and q = y^(1/a)
        # with the rounded exponent was 76 eps off at p = 1e-100
        law = AdversarialLaw(Cap(e0(3), 0.5), 1.5)
        law.inverse_radial_cdf(0.5)
        a, y = 0.75, p * law._inverse.top
        x = float(law._inverse(np.array([y]))[0])
        with mpmath.workdps(40):
            xr, beta = mpmath.mpf(x), mpmath.beta(a, 0.5)
            for _ in range(8):
                res = mpmath.betainc(a, 0.5, 0, xr, regularized=True) - y
                xr -= res * beta * xr ** (1 - a) * mpmath.sqrt(1 - xr)
            rel = abs((x - xr) / xr)
        assert rel <= distributions._CHEB_TOL

    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    def test_missed_branch_inverts_by_halley(self, monkeypatch, sigma):
        # a fit too coarse for its bound is dropped, and the Halley
        # inverse it was certified against inverts that branch instead:
        # in the complement on the upper branch, which sigma = 1 needs
        monkeypatch.setattr(distributions, "_CHEB_DEGREE", 2)
        law = AdversarialLaw(Cap(e0(3), sigma), 1.5)
        p = _residual_points()
        r = law.inverse_radial_cdf(p)
        kernel = law._inverse
        assert kernel._lower is None and kernel._upper is None
        f = law.radial_cdf(r)
        if sigma < 1.0:
            assert np.max(np.abs(f - p)) <= 1e-12
        else:
            # the one-ulp criterion of test_cdf_residual_full_cap
            up = law.radial_cdf(np.minimum(np.nextafter(r, 2.0), 1.0))
            down = law.radial_cdf(np.maximum(np.nextafter(r, -1.0), 0.0))
            step = np.maximum(up - f, f - down)
            assert np.all(np.abs(f - p) <= np.maximum(1e-12, step))
        # the x that _radius hands the kernel on the law's one segment
        rem = p * law._cdf_total
        start = np.minimum((law._im_nodes[0] + rem * law._im_per_mass[0])
                           / law._beta_const, kernel.top)
        inner = (p > 0.0) & (p < 1.0)
        low = start <= kernel.split
        want = np.empty_like(start)
        want[low] = volumes._betaincinv_half(0.75, start[low])
        want[~low] = 1.0 - volumes._betaincinv_half(0.75, 1.0 - start[~low],
                                                     upper=True)
        assert np.array_equal(r[inner], np.sqrt(want[inner]))
        assert np.any(~low[inner]) == (sigma == 1.0)
        assert np.array_equal(law.inverse_radial_cdf(p[::7]), r[::7])

    def test_ratio_stops_on_a_two_cycle(self, monkeypatch):
        # at n = 600, sigma = 0.5 one underflowed node of the lower branch
        # hops between two adjacent doubles; the fixed point stops there
        # instead of running all _MAXIT steps
        calls = []
        tails = volumes._beta_tails

        def counted(*args, log=False):
            if log:
                calls.append(1)
            return tails(*args, log=log)

        monkeypatch.setattr(volumes, "_beta_tails", counted)
        AdversarialLaw(Cap(e0(600), 0.5), 0.0).inverse_radial_cdf(0.5)
        assert 0 < len(calls) <= 20
        q = np.geomspace(1e-3, 2e-2, 8)
        assert np.all(q ** 300.0 < np.finfo(float).tiny)
        volumes._betaincinv_ratio(300.0, q)
        monkeypatch.setattr(volumes, "_MAXIT", 1)
        with pytest.raises(RuntimeError):
            volumes._betaincinv_ratio(300.0, q)

    def test_ratio_stops_per_point(self):
        # the underflowed lower-branch nodes of the n = 600, sigma = 0.5
        # kernel, one of which hops between two adjacent doubles: each
        # gets the same bits alone as in the kernel's batch
        a = 300.0
        kernel = distributions._BetaincInverse(
            a, volumes._betainc_half(a, 0.25))
        deg = distributions._CHEB_DEGREE + 1
        fit = distributions._ChebyshevPieces(
            0.0, kernel.split ** kernel._root, distributions._CHEB_PIECES)
        q = fit.points(np.pi * (np.arange(deg) + 0.5) / deg).ravel()
        q = q[q ** a < np.finfo(float).tiny]
        assert q.size > 100
        alone = [volumes._betaincinv_ratio(a, q[i:i + 1])[0]
                 for i in range(q.size)]
        assert np.array_equal(volumes._betaincinv_ratio(a, q), alone)

    @pytest.mark.parametrize("make", [
        RESIDUAL_LAWS["constant beta 1.5"], RESIDUAL_LAWS["2 - r/sigma"],
        lambda: AdversarialLaw(Cap(e0(16), 1.0), 4.0)],
        ids=["pole", "tabulated", "full cap"])
    def test_batch_independence(self, make):
        law = make()
        p = _residual_points()
        assert np.array_equal(law.inverse_radial_cdf(p[::7]),
                              law.inverse_radial_cdf(p)[::7])

    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    def test_built_once(self, monkeypatch, sigma):
        # the first batch builds the kernel; later ones call no inverse
        # of the incomplete beta
        calls = []
        inverse = distributions._betaincinv_half

        def counted(*args, **kwargs):
            calls.append(1)
            return inverse(*args, **kwargs)

        monkeypatch.setattr(distributions, "_betaincinv_half", counted)
        law = AdversarialLaw(Cap(e0(3), sigma), 1.5)
        law.sample(rng(1), size=BATCH_SIZE)
        assert calls
        calls.clear()
        law.sample(rng(2), size=BATCH_SIZE)
        assert calls == []


class _Recording:
    """Stands in for a Generator: forwards each draw to rng and records
    its kind and shape."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = []

    def random(self, size=None):
        self.calls.append(("random", size))
        return self.rng.random(size)

    def standard_normal(self, size=None):
        self.calls.append(("standard_normal", size))
        return self.rng.standard_normal(size)


def _certificate_error(kernel, fit, upper):
    """The relative error in x of a kernel branch's table `fit` at the
    points its build certifies: midway in angle between the Chebyshev
    nodes and at the ends of the pieces, against volumes'
    _betaincinv_half (in the complement 1 - y on the upper branch)."""
    deg = distributions._CHEB_DEGREE + 1
    points = fit.points(np.pi * np.arange(deg) / deg).ravel()
    a = kernel._a
    if upper:
        y = 1.0 - np.sqrt(points)
        want = 1.0 - volumes._betaincinv_half(a, 1.0 - y, upper=True)
        got = kernel._upper_x(fit, y)
    else:
        y = points ** a
        # no certificate point of this grid needs the underflow series
        assert np.all(y >= np.finfo(float).tiny)
        want = volumes._betaincinv_half(a, y)
        got = kernel._lower_x(fit, y)
    return np.max(np.abs(got - want) / want)


class TestCostGuard:
    """What each sampled point costs, by counts rather than timings: the
    draws one sample asks for, and the degree of every kernel branch."""

    @pytest.mark.parametrize("make", [
        lambda: AdversarialLaw(Cap(e0(3), 0.5), 1.5),
        RESIDUAL_LAWS["2 - r/sigma"],
        lambda: uniform_law(Cap(normalize([1.0, -2.0, 0.5, 3.0, 1.0]), 1.0)),
    ], ids=["pole k=4", "tabulated k=9", "off-axis k=5"])
    def test_one_draw_of_each(self, make):
        # the radius draws, then one gaussian block, or at k = 4 the
        # disk's uniform pairs: 4/pi = 1.27 pairs per point on average,
        # from blocks of 1.3 pairs per point still wanted, plus two.  A
        # constant profile draws one uniform per radius; the sloped
        # table a uniform pair (p, v) per point, then one pair per
        # point it rejected, round by round, each round no larger than
        # the last, and about one point in a thousand redrawn
        law = make()
        k = law.cap.center.shape[0]
        for size, count in ((None, 1), (1, 1), (BATCH_SIZE, BATCH_SIZE)):
            g = _Recording(stream_rng(1, 0))
            law.sample(g, size=size)
            calls = g.calls
            if law._sloped:
                rounds = []
                while calls[0][0] == "random":
                    shape = calls.pop(0)[1]
                    assert len(shape) == 2 and shape[0] == 2
                    rounds.append(shape[1])
                assert rounds[0] == count
                assert all(0 < b <= a for a, b in zip(rounds, rounds[1:]))
                assert sum(rounds[1:]) <= 0.002 * count
            else:
                assert calls.pop(0) == ("random", count)
            if k != 4:
                assert calls == [("standard_normal", (count, k - 1))]
                continue
            kinds, shapes = zip(*calls)
            assert set(kinds) == {"random"}
            assert all(len(s) == 2 and s[1] == 2 for s in shapes)
            assert 2 * sum(s[0] for s in shapes) <= 2.6 * count + 4

    @pytest.mark.parametrize("sigma", [0.05, 0.5, 0.99, 1.0])
    @pytest.mark.parametrize("m", KERNEL_M)
    def test_shortest_certified_prefix(self, m, sigma):
        # each stored branch keeps at most the fitted degree, holds the
        # certificate at 10^4 fresh points, and one degree lower misses
        # the bound its prefix was chosen by
        a = 0.5 * m
        kernel = distributions._kernel(a, volumes._betainc_half(a, sigma ** 2))
        assert distributions._kernel(a, kernel.top) is kernel
        y = (1.0 - np.random.default_rng(int(4 * m)).random(10 ** 4)) \
            * kernel.top
        want = volumes._betaincinv_half(a, y)
        assert np.max(np.abs(kernel(y) - want) / want) \
            <= distributions._CHEB_TOL
        bound = min(distributions._CHEB_TOL, distributions._PREFIX_BUDGET / a)
        branches = [(kernel._lower, False), (kernel._upper, True)]
        branches = [(f, upper) for f, upper in branches if f is not None]
        assert branches
        for fit, upper in branches:
            assert len(fit.coef) - 1 <= distributions._CHEB_DEGREE
            assert _certificate_error(kernel, fit, upper) \
                <= distributions._CHEB_TOL
            if len(fit.coef) > 1:
                lower = copy.copy(fit)
                lower.coef = fit.coef[:-1]
                assert _certificate_error(kernel, lower, upper) > bound


class TestKernelCache:
    def test_laws_share_a_kernel(self, monkeypatch):
        # one kernel per (m / 2, betainc(m / 2, 1/2, sigma^2)): laws with
        # the same m and sigma share it, whatever n and beta
        kernel = distributions._BetaincInverse
        calls = []

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(distributions, "_BetaincInverse", counted)
        laws = [AdversarialLaw(Cap(e0(3), 0.5), 1.5),
                AdversarialLaw(Cap(normalize(np.ones(4)), 0.5), 1.5),
                AdversarialLaw(Cap(e0(5), 0.5), 3.5),
                AdversarialLaw(Cap(e0(3), 0.6), 1.5)]
        for law in laws:
            law.inverse_radial_cdf(0.5)
        assert len(calls) == 2
        assert laws[0]._inverse is laws[1]._inverse is laws[2]._inverse
        assert laws[3]._inverse is not laws[0]._inverse

    def test_threads_build_a_shared_kernel_once(self, monkeypatch):
        # eight threads, each with its own law of the same m and sigma,
        # ask for the kernel at once: one build, and the same radii
        kernel = distributions._BetaincInverse
        calls = []

        def counted(*args):
            calls.append(1)
            time.sleep(0.05)
            return kernel(*args)

        monkeypatch.setattr(distributions, "_BetaincInverse", counted)
        laws = [AdversarialLaw(Cap(e0(3), 0.5), 1.5) for _ in range(8)]
        p = _residual_points()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                radii = list(pool.map(lambda law: law.inverse_radial_cdf(p),
                                      laws, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert calls == [1]
        assert all(np.array_equal(r, radii[0]) for r in radii)


class TestSegmentFits:
    """The inverse on segments where h is not constant: the kernel's
    start radius, refined by safeguarded Newton on the segment mass."""

    def test_missed_kernel_branch_falls_back(self, monkeypatch):
        # the kernel misses at degree 2: the Halley inverse gives the
        # starts, and Newton the radii
        monkeypatch.setattr(distributions, "_CHEB_DEGREE", 2)
        law = RESIDUAL_LAWS["2 - r/sigma"]()
        p = _residual_points()
        r = law.inverse_radial_cdf(p)
        assert law._inverse._lower is None
        assert np.max(np.abs(law.radial_cdf(r) - p)) <= 1e-12
        assert np.array_equal(law.inverse_radial_cdf(p[::7]), r[::7])

    @pytest.mark.parametrize("name", ["2 - r/sigma", "zero tail",
                                      "rising 1 + r"])
    def test_against_oracle(self, name):
        # Newton's radius agrees with a bisection of the closed-form
        # segment mass, run until its bracket stops shrinking, to a few
        # ulps times H / h(r): the slope of the mass is h(r) r^(m-1) /
        # sqrt(1 - r^2), so where h nears 0 ("zero tail" at r = 1/4) the
        # rounding of the mass moves its root further
        law = RESIDUAL_LAWS[name]()
        p = np.concatenate((_residual_points()[2:],
                            np.geomspace(2.0 ** -53, 1e-3, 200)))
        r = law.inverse_radial_cdf(p)
        target = p * law._cdf_total
        idx = np.clip(np.searchsorted(law._cdf_nodes, target, side="left")
                      - 1, 0, len(law._r_nodes) - 2)
        rem = target - law._cdf_nodes[idx]
        lo, hi = law._r_nodes[idx], law._r_nodes[idx + 1]
        for _ in range(1100):
            mid = 0.5 * (lo + hi)
            below = law._segment_mass(idx, mid) < rem
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        want = 0.5 * (lo + hi)
        eps = np.finfo(float).eps
        assert np.all(np.abs(r - want) / want
                      <= 4.0 * eps * law.H / law.profile(want))

    def test_no_fittable_segment(self):
        # one segment whose h rises: the start passes sigma before the
        # segment's mass is reached, and Newton still solves
        n, beta, sigma = 3, 1.0, 0.5
        prof = normalize_profile(lambda r: 1.0 + r, n, beta, sigma, 2)
        law = AdversarialLaw(Cap(e0(n), sigma), beta, prof)
        p = _residual_points()
        r = law.inverse_radial_cdf(p)
        assert np.max(np.abs(law.radial_cdf(r) - p)) <= 1e-12

    @staticmethod
    def radii_from_threads(law):
        """law's inverse at _residual_points from 8 threads at once,
        switching every microsecond; asserts every thread got the same
        radii."""
        p = _residual_points()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                radii = list(pool.map(law.inverse_radial_cdf, [p] * 8,
                                      timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(r, radii[0]) for r in radii)

    @staticmethod
    def slow_kernel_builds(monkeypatch):
        """The kernel builds from here on, each held 50 ms."""
        kernel = distributions._BetaincInverse
        calls = []

        def counted(*args):
            calls.append(1)
            time.sleep(0.05)
            return kernel(*args)

        monkeypatch.setattr(distributions, "_BetaincInverse", counted)
        return calls

    def test_threads_build_once(self, monkeypatch):
        # threads inverting one sloped law build its kernel once, under
        # the kernel cache's lock, and get the same radii
        calls = self.slow_kernel_builds(monkeypatch)
        self.radii_from_threads(RESIDUAL_LAWS["2 - r/sigma"]())
        assert calls == [1]

    def test_threads_build_kernel_once(self, monkeypatch):
        # the same for a constant profile: a slow build holds every other
        # thread at that lock
        calls = self.slow_kernel_builds(monkeypatch)
        self.radii_from_threads(AdversarialLaw(Cap(e0(3), 0.5), 1.5))
        assert calls == [1]

    def test_constant_profile_builds_nothing(self, monkeypatch):
        # a constant profile inverts and samples by its kernel alone: no
        # Newton loop, and no acceptance table
        law = AdversarialLaw(Cap(e0(3), 0.5), 1.5)

        def no_newton(*args):
            raise AssertionError("Newton ran on a constant profile")

        monkeypatch.setattr(law, "_newton", no_newton)
        law.inverse_radial_cdf(_residual_points())
        law.sample(rng(1), size=1000)
        assert "_acceptance" not in vars(law)


def _ks(u):
    """sqrt(N) times the KS distance of the sample u from the uniform law
    on [0, 1]."""
    u = np.sort(u)
    i = np.arange(1, u.size + 1) / u.size
    return math.sqrt(u.size) * max(np.max(i - u),
                                   np.max(u - (i - 1.0 / u.size)))


class _NoAcceptance:
    """Stands in for a Generator whose second row of every uniform pair,
    the sampler's acceptance draw v, is 0: every proposal is kept."""

    def __init__(self, rng):
        self.rng = rng

    def random(self, size):
        out = self.rng.random(size)
        out[1] = 0.0
        return out


class TestRejectionSampler:
    """Radii of laws whose h has a slope, drawn by rejection from the
    kernel's law on each segment.  10^6 radii per table and seed: the
    KS statistic of F(r), and that of r's place in the mass of its
    segment, which sees the law within segments, where the benchmark's
    1024 of them leave F blind, both at most the 0.1% value 1.95."""

    TABLES = {
        **{name: RESIDUAL_LAWS[name] for name in (
            "2 - r/sigma", "rising 1 + r", "zero tail", "m = 200")},
        "3 nodes": lambda: _tabulated_law(lambda r: 2.0 - r / 0.5, 3, 1.0,
                                          0.5, 3),
        "sigma = 1": lambda: _tabulated_law(lambda r: 2.0 - r, 5, 1.0, 1.0,
                                            33),
    }
    N = 10 ** 6
    KS = 1.95

    def statistics(self, law, rng):
        """The two KS statistics of N radii from law._radii."""
        r = law._radii(rng, self.N)
        assert np.all((r >= 0.0) & (r <= law.cap.sigma))
        f = law.radial_cdf(r)
        nodes = law._cdf_nodes / law._cdf_total
        # a radius on a node belongs to the segment that ends there, so
        # none lies in a segment of no mass
        k = np.clip(np.searchsorted(law._r_nodes, r, side="left") - 1, 0,
                    len(nodes) - 2)
        return _ks(f), _ks((f - nodes[k]) / (nodes[k + 1] - nodes[k]))

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_ks(self, name, seed):
        law = self.TABLES[name]()
        assert law._sloped
        stat_f, stat_within = self.statistics(law, stream_rng(seed, 0))
        assert stat_f <= self.KS and stat_within <= self.KS

    @pytest.mark.parametrize("name", ["3 nodes", "zero tail", "sigma = 1"])
    def test_control_no_acceptance(self, name):
        # every kernel proposal kept: the right mass per segment, but
        # the kernel's law within each, as if h were flat there; the
        # within-segment statistic sees it where h varies enough
        stat_f, stat_within = self.statistics(
            self.TABLES[name](), _NoAcceptance(stream_rng(1, 0)))
        assert max(stat_f, stat_within) > self.KS

    def test_sample_draws_these_radii(self):
        # sample's radii are _radii's, drawn before the directions
        law = RESIDUAL_LAWS["zero tail"]()
        z = law.sample(stream_rng(3, 0), size=BATCH_SIZE)
        want = law._radii(stream_rng(3, 0), BATCH_SIZE)
        np.testing.assert_allclose(proj_distance(z, law.cap.center), want,
                                   rtol=1e-12, atol=1e-15)


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

    @pytest.mark.parametrize("size", [None, 1, 300])
    def test_sample_calls_module_level_geometry(self, monkeypatch, size):
        # sample looks tangent_direction and geodesic_point up by their
        # module-level names in distributions at each call, so rebinding
        # those names (as a tracer does to time each layer) reaches every
        # batch exactly once
        calls = {"tangent_direction": 0, "geodesic_point": 0}

        def counted(name):
            func = getattr(distributions, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(distributions, name, counted(name))
        law = AdversarialLaw(Cap(e0(3), 0.5), 1.5)
        for expected in (1, 2):
            law.sample(rng(6), size=size)
            assert calls == {"tangent_direction": expected,
                             "geodesic_point": expected}

    def test_direction_isotropy(self):
        # tangent components should have mean ~ 0 in every coordinate
        law = uniform_law(Cap(e0(4), 0.9))
        z = law.sample(rng(7), size=8000)
        tangent_mean = np.mean(z[:, 1:], axis=0)
        assert np.all(np.abs(tangent_mean) < 0.02)


@pytest.mark.parametrize("call,match", [
    (lambda: Cap([1.0], 0.5), "center must be a vector"),
    (lambda: RadialProfile([0.0, 0.25, 0.5], [1.0, 1.0], 0.5),
     "profile needs matching"),
    (lambda: RadialProfile([0.0, 0.5], [1.0, math.inf], 0.5),
     "profile values must be finite"),
    (lambda: normalize_profile([[0, 1], [1e-10, 0], [0.5, 0]], 40, 0.0, 0.5),
     "raw profile integrates to zero"),
    (lambda: uniform_law(Cap(e0(3), 0.5)).log_radial_cdf(0.0),
     r"rho must lie in \(0, sigma\]"),
    (lambda: uniform_law(Cap(e0(3), 0.5)).log_radial_cdf(1.0),
     r"rho must lie in \(0, sigma\]")],
    ids=["short-center", "unmatched-arrays", "infinite-h", "zero-mass",
         "log-cdf-at-0", "log-cdf-at-2-sigma"])
def test_input_check_names_its_argument(call, match):
    with pytest.raises(ValueError, match=match):
        call()
