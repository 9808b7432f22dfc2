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
    def test_agrees_with_continued_fraction(self):
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


class TestLogRoute:
    def test_matches_linear_route(self):
        for m in (1, 3.5, 20, 80):
            for s in (0.1, 0.6, 1.0):
                assert np.isclose(math.exp(log_cap_integral(m, s)),
                                  cap_integral(m, s), rtol=1e-13)

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
