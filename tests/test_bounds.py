"""Formula evaluators and deterministic checkers for the tail and
expectation machinery.  Frozen values were recomputed by hand from the
displayed formulas at high precision."""

import math

import numpy as np
import pytest

from capsmooth import bounds
from capsmooth.distributions import AdversarialLaw, Cap, normalize_profile
from capsmooth.volumes import cap_integral


def e0(n):
    v = np.zeros(n + 1)
    v[0] = 1.0
    return v


class TestThresholds:
    def test_t0(self):
        assert bounds.t0(3, 1, 0.5) == 18.0
        assert bounds.t0(10, 2, 1.0) == 50.0

    def test_t0_log(self):
        assert np.isclose(bounds.t0_log(3, 1, 0.5),
                          2.8903717578961645, rtol=1e-15)
        assert np.isclose(bounds.t0_log(3, 1, 0.5), math.log(18.0),
                          rtol=1e-15)

    def test_linear_exceeds_log_form(self):
        # the two thresholds parameterize different tails (C vs ln C)
        for n in (2, 5, 20):
            for d in (1, 3):
                assert bounds.t0(n, d, 0.5) > bounds.t0_log(n, d, 0.5)

    def test_domain(self):
        with pytest.raises(ValueError):
            bounds.t0(0, 1, 0.5)
        with pytest.raises(ValueError):
            bounds.t0(3, 0, 0.5)
        with pytest.raises(ValueError):
            bounds.t0(3, 1, 1.5)


class TestUniformTail:
    def test_value(self):
        assert np.isclose(bounds.uniform_tail_bound(3, 1, 0.5, 18.0),
                          13.0 / 3.0, rtol=1e-15)

    def test_below_threshold_raises(self):
        with pytest.raises(ValueError):
            bounds.uniform_tail_bound(3, 1, 0.5, 17.9)

    def test_log_form(self):
        t = 5.0
        assert np.isclose(bounds.uniform_log_tail_bound(3, 1, 0.5, t),
                          78.0 * math.exp(-t), rtol=1e-14)
        with pytest.raises(ValueError):
            bounds.uniform_log_tail_bound(3, 1, 0.5, 2.0)
        # the theorem a uniform law gets on the log scale
        t_min, bound = bounds.tail_theorem(3, 1, 0.5, 0.0, 1.0, "log")
        assert t_min == bounds.t0_log(3, 1, 0.5)
        assert bound(t) == bounds.uniform_log_tail_bound(3, 1, 0.5, t)

    def test_decreasing_in_t(self):
        vals = [bounds.uniform_tail_bound(3, 1, 0.5, t)
                for t in np.linspace(18, 100, 10)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestUniformExpectation:
    def test_frozen(self):
        assert np.isclose(bounds.uniform_expectation_bound(3, 1, 0.5),
                          8.583518938456109, rtol=1e-14)

    def test_formula(self):
        n, d, s = 7, 3, 0.25
        expected = (2 * math.log(n) + 2 * math.log(d)
                    + 2 * math.log(1 / s) + 5)
        assert np.isclose(bounds.uniform_expectation_bound(n, d, s),
                          expected, rtol=1e-15)


class TestSmoothness:
    def test_alpha(self):
        assert bounds.smoothness_alpha(4, 0.0) == 1.0
        assert bounds.smoothness_alpha(4, 2.0) == 0.5
        assert np.isclose(bounds.smoothness_alpha(10, 5.0), 0.5)
        with pytest.raises(ValueError):
            bounds.smoothness_alpha(4, 4.0)

    @pytest.mark.parametrize("n,beta", [(4, 0.0), (4, 2.0), (10, 5.0)])
    def test_ratio_limit(self, n, beta):
        law = AdversarialLaw(Cap(e0(n), 0.5), beta)
        ratio = bounds.smoothness_ratio(law, 1e-6)
        assert abs(ratio - (1.0 - beta / n)) <= 0.02

    def test_ratio_domain(self):
        law = AdversarialLaw(Cap(e0(3), 0.5), 1.0)
        with pytest.raises(ValueError):
            bounds.smoothness_ratio(law, 0.5)
        with pytest.raises(ValueError):
            bounds.smoothness_ratio(law, 0.0)


class TestRhoEps:
    def test_frozen(self):
        assert np.isclose(bounds.rho_eps(4, 0.0, 1.0, 1.0, 0.5),
                          0.6191585686462326, rtol=1e-13)

    def test_proportional_in_sigma(self):
        full = bounds.rho_eps(4, 1.0, 1.0, 2.0, 0.25)
        half = bounds.rho_eps(4, 1.0, 0.5, 2.0, 0.25)
        assert np.isclose(half, 0.5 * full, rtol=1e-15)

    def test_vanishes_for_huge_H(self):
        assert bounds.rho_eps(4, 0.0, 1.0, 1e12, 0.5) < 1e-6

    def test_inside_cap(self):
        for p in bounds.default_grid():
            r = p.rho()
            assert 0.0 < r < p.sigma

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            bounds.rho_eps(4, 2.0, 1.0, 1.0, 0.5)  # eps = alpha
        with pytest.raises(ValueError):
            bounds.rho_eps(4, 2.0, 1.0, 1.0, 0.0)


class TestDeltaTEps:
    def test_delta_is_mass_ratio(self):
        n, beta, sigma, H, eps = 4, 1.0, 0.8, 2.0, 0.3
        rho = bounds.rho_eps(n, beta, sigma, H, eps)
        expected = cap_integral(n, rho) / cap_integral(n, sigma)
        assert np.isclose(bounds.delta_eps(n, beta, sigma, H, eps),
                          expected, rtol=1e-12)

    def test_delta_decreasing_in_H(self):
        ds = [bounds.delta_eps(4, 1.0, 1.0, H, 0.25) for H in (1, 2, 10)]
        assert ds[0] > ds[1] > ds[2]

    def test_t_eps_frozen(self):
        assert np.isclose(bounds.t_eps(3, 1, 0.5, 0.01),
                          math.log(7800.0), rtol=1e-14)

    def test_t_eps_degree_shift(self):
        gap = bounds.t_eps(3, 2, 0.5, 0.01) - bounds.t_eps(3, 1, 0.5, 0.01)
        assert np.isclose(gap, math.log(2.0), rtol=1e-13)

    def test_t_eps_inversion(self):
        # delta = (13 d n / sigma) e^{-1} makes the threshold exactly 1
        n, d, sigma = 2, 1, 0.9
        delta = 13.0 * d * n / sigma * math.exp(-4.0)
        assert np.isclose(bounds.t_eps(n, d, sigma, delta), 4.0, rtol=1e-13)

    def test_t_eps_domain(self):
        with pytest.raises(ValueError):
            bounds.t_eps(3, 1, 0.5, 0.0)
        with pytest.raises(ValueError):
            bounds.t_eps(3, 1, 0.5, 1.0)


class TestBoostedTail:
    def test_frozen(self):
        val = bounds.boosted_tail_bound(3, 1, 0.5, 1.5, 12.0)
        assert np.isclose(val, (78.0 * math.exp(-12.0)) ** 0.25,
                          rtol=1e-14)

    def test_beta_zero_is_sqrt_of_uniform(self):
        t = 9.0
        b = bounds.boosted_tail_bound(3, 1, 0.5, 0.0, t)
        u = bounds.uniform_log_tail_bound(3, 1, 0.5, t)
        assert np.isclose(b, math.sqrt(u), rtol=1e-14)

    def test_vanishes_at_infinity(self):
        assert bounds.boosted_tail_bound(3, 1, 0.5, 1.5, 500.0) < 1e-20

    def test_below_threshold_raises(self):
        with pytest.raises(ValueError):
            bounds.boosted_tail_bound(3, 1, 0.5, 1.5, 3.0)


class TestAdversarialExpectation:
    def test_frozen(self):
        assert np.isclose(
            bounds.adversarial_expectation_bound(4, 2, 1.0, 0.0, 1.0),
            8.953098369968448, rtol=1e-13)
        assert np.isclose(
            bounds.adversarial_expectation_bound(3, 1, 0.5, 1.5, 1.0),
            10.613661307959376, rtol=1e-13)

    def test_monotone_in_beta(self):
        vals = [bounds.adversarial_expectation_bound(8, 1, 0.5, b, 2.0)
                for b in (0.0, 2.0, 4.0, 6.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_monotone_in_H(self):
        vals = [bounds.adversarial_expectation_bound(8, 1, 0.5, 2.0, H)
                for H in (1.0, 2.0, 10.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_gap_function_is_difference(self):
        g = bounds.expectation_bound_gap(5, 2, 0.5)
        expected = (bounds.adversarial_expectation_bound(5, 2, 0.5, 0.0, 1.0)
                    - bounds.uniform_expectation_bound(5, 2, 0.5))
        assert np.isclose(g, expected, rtol=1e-14)

    def test_proof_chain_variant_finite(self):
        for p in bounds.default_grid()[::37]:
            a = bounds.adversarial_expectation_bound(p.n, 1, p.sigma,
                                                     p.beta, p.H)
            b = bounds.adversarial_expectation_bound_proof_chain(
                p.n, 1, p.sigma, p.beta, p.H)
            assert math.isfinite(a) and math.isfinite(b)


def steep_sup():
    # normalized sup of the beta = 0 profile with h = 1 on the first two
    # of 201 nodes r_i = i / 400 and 0 after, at n = 3, sigma = 0.5
    r = np.arange(201) / 400.0
    h = (r <= 1.0 / 400.0).astype(float)
    return normalize_profile(np.column_stack((r, h)), 3, 0.0, 0.5).H


class TestTheoremChoice:
    """bounds holds a law to the uniform theorems only when beta = 0 and
    H <= 1, up to rounding."""

    def test_uniform_covers(self):
        one = 1.0
        for H in (one, np.nextafter(one, 2.0), np.nextafter(one, 0.0),
                  one - 2.0 ** -52):
            assert bounds.uniform_covers(0.0, H)
        assert not bounds.uniform_covers(0.0, 2.0)
        assert not bounds.uniform_covers(0.0, 1.0 + 1e-9)
        assert not bounds.uniform_covers(0.5, 1.0)

    def test_falling_profile_boosted(self):
        # beta = 0 with H = 2.3e6: the boosted theorem from t_eps on the
        # log scale, none on the linear scale, and the pole-law
        # expectation bound
        H = steep_sup()
        assert H == pytest.approx(2.319e6, rel=1e-3)
        t_min, bound = bounds.tail_theorem(3, 1, 0.5, 0.0, H, "log")
        delta = bounds.delta_eps(3, 0.0, 0.5, H, 0.5)
        assert t_min == bounds.t_eps(3, 1, 0.5, delta)
        assert t_min == pytest.approx(35.436, abs=1e-3)
        assert bound(40.0) == bounds.boosted_tail_bound(3, 1, 0.5, 0.0, 40.0)
        assert bounds.tail_theorem(3, 1, 0.5, 0.0, H, "linear") == (
            bounds.t0(3, 1, 0.5), None)
        assert bounds.expectation_theorem(3, 1, 0.5, 0.0, H) == (
            bounds.adversarial_expectation_bound(3, 1, 0.5, 0.0, H))
        assert bounds.expectation_theorem(3, 1, 0.5, 0.0, H) == (
            pytest.approx(37.5736, abs=1e-4))

    def test_uniform_law(self):
        assert bounds.expectation_theorem(3, 1, 0.5, 0.0, 1.0) == (
            bounds.uniform_expectation_bound(3, 1, 0.5))
        t_min, bound = bounds.tail_theorem(3, 1, 0.5, 0.0, 1.0, "linear")
        assert t_min == 18.0
        assert bound(20.0) == bounds.uniform_tail_bound(3, 1, 0.5, 20.0)

    def test_constant_tables_read_as_one(self):
        # normalized constant tables come out with a sup of 1 - 1 ulp on
        # 9 of these 108 points (1 + 1 ulp on others); the theorems read
        # every one as H = 1, the sup a normalized profile cannot go below
        below = 0
        for n in (2, 3, 4, 8):
            for beta in (0.5, 1.0, 1.5):
                for sigma in (0.1, 0.5, 1.0):
                    for g in (5, 65, 1025):
                        H = normalize_profile(lambda r: 1.0, n, beta, sigma,
                                              grid_points=g).H
                        below += H < 1.0
                        assert bounds.expectation_theorem(
                            n, 1, sigma, beta, H) == (
                            bounds.adversarial_expectation_bound(
                                n, 1, sigma, beta, 1.0))
                        assert (bounds.tail_theorem(n, 1, sigma, beta, H,
                                                    "log")[0]
                                == bounds.tail_theorem(n, 1, sigma, beta,
                                                       1.0, "log")[0])
        assert below == 9

    def test_sup_below_one_beyond_rounding_rejected(self):
        with pytest.raises(ValueError, match="H must be >= 1"):
            bounds.expectation_theorem(3, 1, 0.5, 1.5, 0.5)
        with pytest.raises(ValueError, match="H must be >= 1"):
            bounds.tail_theorem(3, 1, 0.5, 1.5, 0.5, "log")


class TestBoostingCheck:
    def test_trivial_beta_zero_H_one(self):
        # reduces to X <= X^{1-eps} for X <= 1
        rmax = bounds.rho_eps(5, 0.0, 0.7, 1.0, 0.3)
        for rho in np.geomspace(rmax * 1e-6, rmax, 25):
            assert bounds.boosting_check(5, 0.0, 0.7, 1.0, 0.3, rho).passed

    def test_endpoint(self):
        eps = 0.25 * (1.0 - 1.0 / 4.0)
        rho = bounds.rho_eps(4, 1.0, 1.0, 1.0, eps)
        assert bounds.boosting_check(4, 1.0, 1.0, 1.0, eps, rho).passed

    def test_rho_above_rho_eps_raises(self):
        rmax = bounds.rho_eps(4, 1.0, 1.0, 1.0, 0.25)
        with pytest.raises(ValueError):
            bounds.boosting_check(4, 1.0, 1.0, 1.0, 0.25, 1.5 * rmax)
        with pytest.raises(ValueError):
            bounds.boosting_check(4, 1.0, 1.0, 1.0, 0.25, 0.0)


    def test_row_has_no_truth_value(self):
        row = bounds.boosting_check(5, 0.0, 0.7, 1.0, 0.3, 1e-3)
        assert row.passed and row.lhs <= row.rhs
        with pytest.raises(TypeError):
            bool(row)
        with pytest.raises(TypeError):
            bool(bounds.CheckRow(1.0, 0.0, False))


class TestSmallCalc:
    def test_examples(self):
        assert bounds.small_calc_check(1).passed
        assert bounds.small_calc_check(100).passed

    def test_spot_grid(self):
        for n in (1, 2, 7, 50, 1000, 10 ** 6):
            assert bounds.small_calc_check(n).passed


class TestDeltaSandwich:
    def test_holds_at_small_sigma(self):
        for n, beta, H in ((2, 0.0, 1.0), (4, 2.0, 2.0), (8, 6.0, 10.0)):
            lower, upper = bounds.delta_eps_sandwich(n, beta, 0.5, H)
            assert lower.passed and upper.passed

    def test_upper_holds_on_grid(self):
        for p in bounds.default_grid()[::11]:
            _, upper = bounds.delta_eps_sandwich(p.n, p.beta, p.sigma, p.H)
            assert upper.passed

    def test_known_lower_failure_at_sigma_one(self):
        # the closed-form lower bound relies on an upper sandwich branch
        # that is invalid at sigma = 1; the discrepancy is real, not a
        # numerical artifact (see the acceptance suite)
        lower, upper = bounds.delta_eps_sandwich(2, 0.0, 1.0, 1.0)
        assert lower.lhs == upper.lhs
        assert np.isclose(lower.lhs, 0.1315989966403572, rtol=1e-12)
        assert np.isclose(lower.rhs, 0.13872276405862413, rtol=1e-12)
        assert not lower.passed
        assert upper.passed

    def test_t_eps_exceeds_t0(self):
        for p in bounds.default_grid()[::23]:
            for d in (1, 2, 5):
                assert bounds.t_eps_exceeds_t0(p.n, d, p.sigma, p.beta,
                                               p.H).passed


def pin_id(pin):
    return ",".join("%s=%g" % item for item in pin.items())


class TestGridAndParams:
    def test_default_grid_size(self):
        grid = bounds.default_grid()
        assert len(grid) == 6 * 4 * 3 * 3 * 3

    def test_params_validate(self):
        with pytest.raises(ValueError):
            bounds.BoostParams(n=4, beta=4.0, sigma=0.5, H=1.0, eps=0.1)
        with pytest.raises(ValueError):
            bounds.BoostParams(n=4, beta=1.0, sigma=0.5, H=0.5, eps=0.1)
        p = bounds.BoostParams(n=4, beta=1.0, sigma=0.5, H=2.0, eps=0.25)
        assert bounds.smoothness_alpha(p.n, p.beta) == 0.75
        assert np.isclose(bounds.delta_eps(p.n, p.beta, p.sigma, p.H, p.eps),
                          cap_integral(4, p.rho()) / cap_integral(4, 0.5),
                          rtol=1e-12)

    def test_default_grid_order(self):
        # n, beta, H, sigma, eps: beta and eps as fractions of n and alpha
        expected = [(n, bf * n, s, H, ef * (1.0 - bf))
                    for n in (2, 3, 4, 8, 16, 32)
                    for bf in (0.0, 0.25, 0.5, 0.75)
                    for H in (1.0, 2.0, 10.0)
                    for s in (0.1, 0.5, 1.0)
                    for ef in (0.25, 0.5, 0.75)]
        assert [(p.n, p.beta, p.sigma, p.H, p.eps)
                for p in bounds.default_grid()] == expected

    @pytest.mark.parametrize("pin", [
        *({"n": n} for n in bounds.DEFAULT_N),
        *({"sigma": s} for s in bounds.DEFAULT_SIGMA),
        *({"H": H} for H in bounds.DEFAULT_H),
        {"beta": 0.0}, {"beta": 0.0, "eps": 0.5}, {"n": 8, "beta": 6.0}],
        ids=pin_id)
    def test_pinned_axis_filters_the_grid(self, pin):
        # beta and eps are fractions of n and of alpha, so only values
        # that every other axis point reaches filter the grid
        full = [p for p in bounds.default_grid()
                if all(getattr(p, k) == v for k, v in pin.items())]
        assert bounds.default_grid(**pin) == full

    @pytest.mark.parametrize("pin", [
        {"n": 0}, {"n": -3}, {"n": 2.5}, {"n": 2, "beta": 2.0},
        {"beta": 2.0}, {"sigma": math.nan}, {"sigma": 1.5}, {"H": 0.5},
        {"eps": 0.5}, {"eps": math.nan}], ids=pin_id)
    def test_invalid_pin_rejected(self, pin):
        # n is checked before beta and eps divide by it
        with pytest.raises(ValueError):
            bounds.default_grid(**pin)


class TestBallMaximizer:
    def law(self, n, beta, sigma=0.8):
        return AdversarialLaw(Cap(e0(n), sigma), beta)

    def test_centered_ball_equality(self):
        assert bounds.ball_maximizer_check(self.law(4, 2.0),
                                           [(0.0, 0.3)])

    def test_uniform_any_shells(self):
        shells = [(0.1, 0.2), (0.4, 0.5), (0.7, 0.8)]
        assert bounds.ball_maximizer_check(self.law(3, 0.0), shells)

    def test_outer_annulus_strictly_dominated(self):
        assert bounds.ball_maximizer_check(self.law(4, 2.0),
                                           [(0.6, 0.8)])

    def rising_law(self, monkeypatch):
        # h = 1 + 4r with beta = 0: a weight that rises, which the law's
        # constructor rejects unless its monotonicity check is off
        monkeypatch.setattr(AdversarialLaw, "_check_weight_monotone",
                            lambda law: None)
        prof = normalize_profile(lambda r: 1.0 + 4.0 * r, 3, 0.0, 0.8)
        return AdversarialLaw(Cap(e0(3), 0.8), 0.0, prof)

    def test_centered_ball_equality_rising_weight(self, monkeypatch):
        # a centered ball is its own equal-mass ball whatever the law,
        # so the law's mass of the ball must come back unchanged
        assert bounds.ball_maximizer_check(self.rising_law(monkeypatch),
                                           [(0.0, 0.3)])

    def test_rising_weight_fails(self, monkeypatch):
        # negative control: when the weight rises, outer shells carry
        # more law mass than the ball of the same uniform mass
        law = self.rising_law(monkeypatch)
        assert not bounds.ball_maximizer_check(law, [(0.6, 0.8)])
        assert not bounds.ball_maximizer_check(law, [(0.2, 0.3), (0.7, 0.8)])

    def test_overlapping_rejected(self):
        with pytest.raises(ValueError):
            bounds.ball_maximizer_check(self.law(3, 1.0),
                                        [(0.1, 0.4), (0.3, 0.5)])

    def test_outside_cap_rejected(self):
        with pytest.raises(ValueError):
            bounds.ball_maximizer_check(self.law(3, 1.0), [(0.5, 0.9)])


def test_smoothness_ratio_one_ulp_below_sigma_rejected():
    # the law's log mass at the last double below sigma rounds to 0
    law = AdversarialLaw(Cap(e0(3), 0.5), 1.5)
    with pytest.raises(ValueError, match="rho too close to sigma"):
        bounds.smoothness_ratio(law, np.nextafter(0.5, 0.0))
