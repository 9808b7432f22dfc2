"""Cap integral I_m(sigma) = int_0^sigma r^(m-1) (1-r^2)^(-1/2) dr against
independent routes: elementary antiderivatives for m <= 3, the positive
power series, mpmath's incomplete beta, and high-precision values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsmooth import volumes
from capsmooth.checks import sandwich_rows
from capsmooth.volumes import (cap_integral, cap_integral_bounds,
                               cap_integral_mpmath, cap_integral_series,
                               cap_measure, log_cap_integral, sphere_volume)

SIGMAS = np.linspace(0.1, 1.0, 10)


def closed_form(m, s):
    # antiderivatives for the first three integer moments
    if m == 1:
        return math.asin(s)
    if m == 2:
        return 1.0 - math.sqrt(1.0 - s * s)
    if m == 3:
        return 0.5 * (math.asin(s) - s * math.sqrt(1.0 - s * s))
    raise AssertionError


class TestClosedForms:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_small_m(self, m):
        for s in SIGMAS:
            assert np.isclose(cap_integral(m, s), closed_form(m, s),
                              rtol=1e-13, atol=0)

    def test_frozen_values(self):
        # independently recomputed at 50-digit precision
        assert np.isclose(cap_integral(3, 0.5), 0.045293036853039773,
                          rtol=1e-13)
        assert np.isclose(cap_integral(2.5, 0.8), 0.29375031632655901,
                          rtol=1e-12)
        assert np.isclose(cap_integral(0.5, 0.9), 2.1630988394874153,
                          rtol=1e-12)

    def test_sigma_one_ladder(self):
        # I_1(1) = pi/2, I_2(1) = 1, then (m-1) I_m = (m-2) I_{m-2}
        assert np.isclose(cap_integral(1, 1.0), math.pi / 2, rtol=1e-14)
        assert np.isclose(cap_integral(2, 1.0), 1.0, rtol=1e-14)
        assert np.isclose(cap_integral(3, 1.0), math.pi / 4, rtol=1e-14)
        assert np.isclose(cap_integral(4, 1.0), 2.0 / 3.0, rtol=1e-14)
        assert np.isclose(cap_integral(5, 1.0), 3.0 * math.pi / 16,
                          rtol=1e-14)


class TestSeriesOracle:
    def test_agrees_with_cap_integral(self):
        worst = 0.0
        for m in list(range(1, 21)) + [0.5, 2.5, 10.5]:
            for s in SIGMAS:
                if s > 0.999:
                    continue
                a = cap_integral(m, s)
                b = cap_integral_series(m, s)
                worst = max(worst, abs(a - b) / b)
        assert worst <= 1e-12

    def test_sigma_one_integer_m(self):
        for m in range(1, 30):
            assert np.isclose(cap_integral_series(m, 1.0),
                              cap_integral(m, 1.0), rtol=1e-13)

    def test_near_one_domain_limit(self):
        # the series needs ~1/(1-sigma^2) terms; past the cap it refuses
        with pytest.raises(RuntimeError):
            cap_integral_series(4, 0.9999999)

    def test_sigma_one_non_integer_rejected(self):
        with pytest.raises(ValueError):
            cap_integral_series(2.5, 1.0)


class TestQuadBackend:
    """cap_integral against the independent cap_integral_mpmath oracle."""

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.5, 7.5, 16.0, 33.5])
    def test_quad_agreement(self, m):
        for s in (0.1, 0.5, 0.9, 1.0):
            a = cap_integral(m, s)
            b = cap_integral_mpmath(m, s)
            assert np.isclose(a, b, rtol=1e-12, atol=0)

    def test_closed_forms(self):
        # the oracle itself against the antiderivatives and I_2(1) = 1
        for m in (1, 2, 3):
            for s in SIGMAS:
                assert np.isclose(cap_integral_mpmath(m, s),
                                  closed_form(m, s), rtol=1e-14, atol=0)
        assert cap_integral_mpmath(2, 1.0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            cap_integral_mpmath(0.0, 0.5)
        with pytest.raises(ValueError):
            cap_integral_mpmath(2, 1.5)


LOG_ROUTE_CASES = ([(m, s) for m in (1.0, 3.5, 9.0, 20.0, 80.0, 1000.0)
                    for s in (0.1, 0.5, 0.9, 0.95, 0.99, 1.0)]
                   + [(300.0, 0.05), (10000.0, 0.5)])


class TestLogRoute:
    def test_against_mpmath(self):
        # every region of the engine (lower series, continued fraction,
        # upper series), sigma = 1, and values far below the double
        # range: I_300(0.05) ~ 1e-393, I_10000(0.5) ~ 1e-3014.  The
        # error in log I is the relative error of I, within the
        # engine's bound, plus the rounding of log I itself
        import mpmath
        regions = set()
        for m, s in LOG_ROUTE_CASES:
            a, x = m / 2, s * s
            regions.add(2 if x >= (a + 1.0) / (a + 2.5)
                        else int(x > volumes._SERIES_TOP))
            with mpmath.workdps(40):
                ref = mpmath.log(mpmath.betainc(
                    mpmath.mpf(m) / 2, 0.5, 0, mpmath.mpf(s) ** 2) / 2)
                err = float(abs(log_cap_integral(m, s) - ref))
            assert err <= (_bound_eps(a) * EPS
                           + 2.0 * np.spacing(abs(float(ref)))), (m, s)
        assert regions == {0, 1, 2}

    def test_no_underflow_for_large_m(self):
        # I_10000(0.5) ~ 1e-3014 underflows linearly but not in logs
        val = log_cap_integral(10000, 0.5)
        assert np.isclose(val, -6940.538338259096, rtol=1e-13)
        assert cap_integral(10000, 0.5) == 0.0

    def test_sigma_zero(self):
        assert log_cap_integral(5, 0.0) == -math.inf
        assert cap_integral(5, 0.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_cap_integral(0.0, 0.5)
        with pytest.raises(ValueError):
            log_cap_integral(-1, 0.5)
        with pytest.raises(ValueError):
            log_cap_integral(2, 1.5)
        with pytest.raises(ValueError):
            cap_integral(2, -0.1)


class TestSphereVolume:
    def test_known_values(self):
        assert np.isclose(sphere_volume(0), 2.0, rtol=1e-15)
        assert np.isclose(sphere_volume(1), 2.0 * math.pi, rtol=1e-15)
        assert np.isclose(sphere_volume(2), 4.0 * math.pi, rtol=1e-15)
        assert np.isclose(sphere_volume(3), 2.0 * math.pi ** 2, rtol=1e-14)

    def test_half_sphere_identity(self):
        # O_{n-1} I_n(1) = O_n / 2
        for n in range(1, 101):
            lhs = sphere_volume(n - 1) * cap_integral(n, 1.0)
            rhs = 0.5 * sphere_volume(n)
            assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sphere_volume(-1)


class TestCapMeasure:
    def test_full_cap_is_half_sphere(self):
        for n in (1, 2, 5, 17):
            assert np.isclose(cap_measure(n, 1.0),
                              0.5 * sphere_volume(n), rtol=1e-13)


def test_log_cap_integral_is_a_float():
    # on the series branch, the complement branch and at sigma = 1, so
    # a verdict computed from it is a bool that JSON can write
    for sigma in (0.1, 0.99, 1.0):
        assert type(log_cap_integral(3.0, sigma)) is float


class TestSandwich:
    def test_bounds_bracket_value_away_from_one(self):
        for m in (1, 2, 5, 12, 40):
            for s in (0.1, 0.5, 0.8):
                lo, hi = cap_integral_bounds(m, s)
                val = cap_integral(m, s)
                assert lo <= val * (1 + 1e-12)
                assert val <= hi * (1 + 1e-12)

    def test_lower_holds_everywhere(self):
        rows = sandwich_rows(range(1, 51), SIGMAS)
        assert all(lower.passed for _, _, lower, _ in rows)

    def test_upper_fails_only_near_sigma_one(self):
        bad = [s for _, s, _, upper in sandwich_rows(range(1, 51), SIGMAS)
               if not upper.passed]
        assert bad, "the upper bound is known to fail at the cap boundary"
        assert all(s >= 0.9 for s in bad)

    def test_upper_fails_at_one_for_every_m(self):
        rows = sandwich_rows(range(1, 51), [1.0])
        assert all(not upper.passed for *_, upper in rows)


@given(m=st.floats(0.5, 60.0),
       s1=st.floats(0.02, 1.0), s2=st.floats(0.02, 1.0))
@settings(max_examples=200, deadline=None)
def test_monotonicity_properties(m, s1, s2):
    lo, hi = sorted((s1, s2))
    a, b = cap_integral(m, lo), cap_integral(m, hi)
    assert a <= b * (1 + 1e-12)
    # integrand shrinks with m pointwise on r <= 1
    assert cap_integral(m + 0.5, hi) <= b * (1 + 1e-12)


# -- the in-house incomplete beta at b = 1/2 -------------------------------

EPS = np.finfo(float).eps
BETA_A = [0.25, 0.75, 1.5, 2.0, 2.5, 4.5, 16.0, 50.0, 100.0, 300.0, 500.0]
# dense in x: the lower series, the continued fraction, the crossover
# and the upper series all get points, and so do both ends
DENSE_X = np.unique(np.concatenate((
    np.geomspace(1e-12, 0.5, 40), np.linspace(0.5, 1.0, 61)[1:-1],
    1.0 - np.geomspace(1e-14, 0.3, 30))))
DENSE_W = np.geomspace(1e-14, 0.5, 40)


def _mp_betainc(a, b, x):
    """Regularized I_x(a, b) at 40 digits."""
    import mpmath
    with mpmath.workdps(40):
        return mpmath.betainc(a, b, 0, mpmath.mpf(float(x)),
                              regularized=True)


def _relative_errors(values, refs):
    """|value - ref| / ref in eps, with ref at 40 digits, where the
    reference is at least 1e-290."""
    import mpmath
    out = []
    with mpmath.workdps(40):
        for v, ref in zip(values, refs):
            if ref >= mpmath.mpf("1e-290"):
                out.append(float(abs(mpmath.mpf(float(v)) - ref) / ref)
                           / EPS)
    return np.array(out)


def _bound_eps(a):
    # 32 eps up to a = 8; 2e-13 relative beyond, where x^a and the
    # engine's continued-fraction band, 0.75 < x < (a+1)/(a+5/2), lose
    # accuracy with a; every route (values, logs, arrays and single
    # points) reads that one engine
    return 32.0 if a <= 8 else 2e-13 / EPS


class TestBetaincHalf:
    """volumes._betainc_half against 40-digit mpmath, scipy alongside."""

    @pytest.mark.parametrize("a", BETA_A)
    def test_lower_tail_against_mpmath(self, a):
        from scipy import special
        refs = [_mp_betainc(a, 0.5, x) for x in DENSE_X]
        ours = _relative_errors(volumes._betainc_half(a, DENSE_X), refs)
        theirs = _relative_errors(special.betainc(a, 0.5, DENSE_X), refs)
        assert ours.size == theirs.size > 0
        assert np.max(ours) <= _bound_eps(a)
        # scipy, the second reference, is no closer than this bound plus
        # its own error anywhere
        assert np.max(ours) <= np.max(theirs) + _bound_eps(a)

    @pytest.mark.parametrize("a", BETA_A)
    def test_upper_tail_against_mpmath(self, a):
        # upper=True takes w = 1 - x and returns I_w(1/2, a), which must
        # keep its relative accuracy where it is small
        from scipy import special
        refs = [_mp_betainc(0.5, a, w) for w in DENSE_W]
        ours = _relative_errors(volumes._betainc_half(a, DENSE_W, upper=True),
                                refs)
        assert ours.size > 0 and np.max(ours) <= _bound_eps(a)
        theirs = _relative_errors(special.betainc(0.5, a, DENSE_W), refs)
        assert np.max(ours) <= np.max(theirs) + _bound_eps(a)

    def test_log_beta(self):
        import mpmath
        grid = np.concatenate((np.linspace(0.25, 20.0, 80),
                               np.geomspace(20.0, 600.0, 40)))
        with mpmath.workdps(40):
            worst = max(abs(volumes._log_beta_half(a)
                            - mpmath.log(mpmath.beta(float(a), 0.5)))
                        for a in grid)
        # an error d in log B is a relative error d in B
        assert float(worst) <= 4.0 * EPS

    @pytest.mark.parametrize("a", [0.25, 1.5, 16.0, 300.0])
    def test_ends_and_underflow(self, a):
        # the ends stay exact in both drivers (no log of 0, no 0 * inf):
        # at most _SCALAR_CUT points, and scalars, take the plain-float one
        for x in (np.array([0.0, 1.0]),
                  np.tile([0.0, 1.0], volumes._SCALAR_CUT)):
            ends = list(x)
            assert list(volumes._betainc_half(a, x)) == ends
            assert list(volumes._betainc_half(a, x, upper=True)) == ends
            assert list(volumes._vec_cap_integral(2 * a, x)) == [
                float(volumes._beta_half(a)) / 2 * v for v in ends]
        for upper in (False, True):
            assert volumes._betainc_half(a, 0.0, upper) == 0.0
            assert volumes._betainc_half(a, 1.0, upper) == 1.0
        assert log_cap_integral(2 * a, 0.0) == -math.inf
        assert log_cap_integral(2 * a, 1.0) \
            == math.log(0.5) + volumes._log_beta_half(a)
        assert isinstance(volumes._betainc_half(a, 0.5), float)
        # a value below the double range is 0, not nan
        tiny = volumes._betainc_half(a, np.array([1e-300 ** (1.0 / a)
                                                  if a < 1 else 1e-5]))
        assert not np.isnan(tiny).any()
        assert list(volumes._vec_cap_integral(2 * a, np.array([0.0]))) \
            == [0.0]

    def test_deep_underflow_is_zero(self):
        assert volumes._betainc_half(300.0, 1e-5) == 0.0
        assert list(volumes._vec_cap_integral(600.0, np.array([1e-3]))) \
            == [0.0]

    @pytest.mark.parametrize("a", [0.25, 1.5, 4.5, 16.0, 300.0])
    @pytest.mark.parametrize("upper", [False, True])
    def test_points_stand_alone(self, a, upper):
        # the sums stop on each point's own terms: a point gets the same
        # bits in a large array (a term loop), a small one (a term
        # table), one of at most _SCALAR_CUT points or a scalar (the
        # plain-float driver), for both tails and for I_m
        x = np.concatenate((DENSE_X, DENSE_W))
        r = np.sqrt(1.0 - x if upper else x)
        if a > 3.5:
            # both drivers reach the continued-fraction band
            assert np.any((x > volumes._SERIES_TOP)
                          & (x < (a + 1.0) / (a + 2.5)))
        for func, v in ((lambda p: volumes._betainc_half(a, p, upper), x),
                        (lambda p: volumes._vec_cap_integral(2 * a, p), r)):
            whole = func(v)
            assert np.array_equal(whole[::9], func(v[::9]))
            for size in (1, 2, volumes._SCALAR_CUT + 1):
                assert np.array_equal(whole, np.concatenate(
                    [func(v[i:i + size]) for i in range(0, v.size, size)]))
            assert np.array_equal(whole[::40], [func(p) for p in v[::40]])
        whole = volumes._betainc_half(a, x, upper)
        inverse = volumes._betaincinv_half(a, whole, upper)
        assert np.array_equal(inverse[::9], volumes._betaincinv_half(
            a, whole[::9], upper))

    @pytest.mark.parametrize("m", [0.5, 3.0, 8.0, 200.0])
    def test_cap_integral_vector(self, m):
        # I_m from r^m and (1 - r)(1 + r), against 40-digit mpmath, the
        # region near r = 1 included
        import mpmath
        r = np.concatenate((np.linspace(0.01, 0.99, 50),
                            1.0 - np.geomspace(1e-12, 1e-3, 10), [1.0]))
        got = volumes._vec_cap_integral(m, r)
        with mpmath.workdps(40):
            refs = [mpmath.betainc(m / 2, 0.5, 0, mpmath.mpf(float(v)) ** 2)
                    / 2 for v in r]
        assert np.max(_relative_errors(got, refs)) <= _bound_eps(m / 2)


def _mp_root(p, q, y, x):
    """The 40-digit root of I_x(p, q) = y, by Newton from x."""
    import mpmath
    with mpmath.workdps(40):
        xr, beta = mpmath.mpf(float(x)), mpmath.beta(p, q)
        for _ in range(8):
            res = mpmath.betainc(p, q, 0, xr, regularized=True) - y
            xr -= res * beta * xr ** (1 - p) * (1 - xr) ** (1 - q)
        return xr


class TestBetaincinvHalf:
    """The bracketed Newton inverse, on both branches of the kernel:
    the lower tail in x and the upper tail in w = 1 - x."""

    @pytest.mark.parametrize("a", [0.25, 0.75, 1.5, 4.5, 16.0, 150.0])
    def test_lower_round_trip(self, a):
        # x ~ (y a B)^(1/a) in the tail: the roots for a = 1/4 run from
        # below the double range (which give 0) to 0.3
        y = np.concatenate((np.geomspace(1e-200, 1e-3, 8),
                            np.linspace(0.01, 0.5, 8)))
        x = volumes._betaincinv_half(a, y)
        gone = x == 0.0
        assert list(np.flatnonzero(gone)) == ([0, 1, 2, 3, 4] if a < 0.5
                                              else [])
        x, y = x[~gone], y[~gone]
        for xi, yi in zip(x, y):
            ref = _mp_root(a, 0.5, yi, xi)
            # the rounding of I, which x ~ y^(1/a) magnifies by 1/a
            assert abs(float((xi - ref) / ref)) \
                <= 4.0 * EPS * max(1.0, 1.0 / a)
        # and forward again: the residual is the forward function's
        # error plus one ulp of x times the slope d log I / d log x
        back = volumes._betainc_half(a, x)
        slope = np.exp(a * np.log(x) - 0.5 * np.log1p(-x)
                       - volumes._log_beta_half(a)) / y
        assert np.all(np.abs(back - y) / y
                      <= (_bound_eps(a) + 2.0 * slope) * EPS)

    @pytest.mark.parametrize("a", [0.25, 0.75, 1.5, 4.5, 16.0, 150.0])
    def test_upper_round_trip(self, a):
        c = np.concatenate((np.geomspace(1e-12, 1e-3, 6),
                            np.linspace(0.01, 0.5, 8)))
        w = volumes._betaincinv_half(a, c, upper=True)
        for wi, ci in zip(w, c):
            ref = _mp_root(0.5, a, ci, wi)
            # w ~ c^2 near 0 doubles the relative error of the tail
            assert abs(float((wi - ref) / ref)) <= 16.0 * EPS
        back = volumes._betainc_half(a, w, upper=True)
        assert np.max(np.abs(back - c) / c) <= 16.0 * EPS

    def test_ends(self):
        y = np.array([0.0, 1.0])
        assert list(volumes._betaincinv_half(2.0, y)) == [0.0, 1.0]
        assert list(volumes._betaincinv_half(2.0, y, upper=True)) \
            == [0.0, 1.0]
        assert volumes._betaincinv_half(2.0, np.zeros((2, 3))).shape \
            == (2, 3)


def test_series_at_zero_radius():
    assert cap_integral_series(3, 0.0) == 0.0
