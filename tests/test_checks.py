"""Battery rows of `capsmooth verify` that rest on a lemma or an oracle:
the boosting inequality checked at rho_eps alone, and the mpmath
cross-check of I_m, each with a negative control that must fail it.
Also a negative control for each row that reads its checker's
CheckRows: the I_m and delta_eps sandwiches, the premise of t_eps > t0,
small_calc and the smoothness ratio, whose rows fail on NaN; for each
row that compares a value with an oracle or an identity; and for the
Monte Carlo rows.  CONTROLS maps every hard row that a quick battery
run yields to its control, and a test fails when a row has none.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from capsmooth import bounds, checks, condnum, montecarlo, volumes
from capsmooth.bounds import CheckRow
from capsmooth.distributions import uniform_law


def only_row(entry):
    rows = list(entry(True, 3, 1))
    assert len(rows) == 1
    return rows[0]


class TestBoostingRow:
    def test_one_check_per_grid_point_at_rho_eps(self, monkeypatch):
        calls = []
        check = bounds.boosting_check

        def spy(n, beta, sigma, H, eps, rho):
            calls.append((bounds.BoostParams(n, beta, sigma, H, eps), rho))
            return check(n, beta, sigma, H, eps, rho)

        monkeypatch.setattr(bounds, "boosting_check", spy)
        name, params, row = only_row(checks._boosting_inequality)
        assert (name, params) == ("boosting_inequality", "grid at rho_eps")
        assert row == CheckRow(0.0, 0.0, True)
        assert calls == [(p, p.rho()) for p in bounds.default_grid()]

    def test_shifted_lhs_fails(self, monkeypatch):
        # the smallest log margin at rho_eps on the grid is 0.2068
        check = bounds.boosting_check

        def shifted(*args):
            row = check(*args)
            lhs = row.lhs + 0.25
            return CheckRow(lhs, row.rhs,
                            lhs <= row.rhs + 1e-12 * max(1.0, abs(row.rhs)))

        monkeypatch.setattr(bounds, "boosting_check", shifted)
        _, _, row = only_row(checks._boosting_inequality)
        assert not row.passed and row.lhs >= 1.0


def log_ratio_slope(n, beta, eps, rho):
    """f'(rho) of boosting_check's lemma, from g_k = rho^k / (k I_k)."""
    m = n - beta
    alpha = m / n

    def g(k):
        return math.exp(k * math.log(rho) - math.log(k)
                        - volumes.log_cap_integral(k, rho))

    return (n / (rho * math.sqrt(1.0 - rho * rho))
            * (alpha * g(m) - (alpha - eps) * g(n)))


class TestBoostingLemma:
    @pytest.mark.parametrize("p", bounds.default_grid()[::37])
    def test_margin_increases_to_rho_eps(self, p):
        rows = [row for _, _, row in checks.boosting_rows([p], 60)]
        f = np.array([row.lhs - row.rhs for row in rows])
        assert np.all(np.diff(f) > 0.0)
        assert f[-1] <= -0.2

    @pytest.mark.parametrize("n, beta, eps", [(2, 1.0, 0.05), (8, 4.0, 0.2),
                                              (32, 0.0, 0.01)])
    def test_slope_formula(self, n, beta, eps):
        # the derivative in the lemma against a central difference
        rmax = bounds.rho_eps(n, beta, 1.0, 1.0, eps)
        for rho in (1e-3 * rmax, 0.1 * rmax, 0.9 * rmax):
            h = 1e-6 * rho
            f = [bounds.boosting_check(n, beta, 1.0, 1.0, eps, r)
                 for r in (rho - h, rho + h)]
            diff = ((f[1].lhs - f[1].rhs) - (f[0].lhs - f[0].rhs)) / (2 * h)
            slope = log_ratio_slope(n, beta, eps, rho)
            assert slope > 0.0
            assert np.isclose(diff, slope, rtol=1e-6)


class TestMpmathRow:
    def test_passes(self):
        name, params, row = only_row(checks._cap_integral_mpmath)
        assert (name, params) == ("cap_integral_mpmath", "m real grid")
        assert row.passed and row.lhs <= 1e-13

    def test_scaled_cap_integral_fails(self, monkeypatch):
        exact = volumes.cap_integral
        monkeypatch.setattr(volumes, "cap_integral",
                            lambda m, s: exact(m, s) * (1.0 + 1e-8))
        _, _, row = only_row(checks._cap_integral_mpmath)
        assert not row.passed and row.lhs > 9e-9


def rows_of(entry):
    return [(name, row) for name, _, row in entry(True, 3, 1)]


class TestReWiredRows:
    def test_raised_lower_cap_integral_bound_fails(self, monkeypatch):
        assert rows_of(checks._cap_integral_sandwich)[0] == (
            "cap_integral_sandwich_lower", CheckRow(0.0, 0.0, True))
        exact = volumes.cap_integral_bounds

        def raised(m, sigma):
            lo, hi = exact(m, sigma)
            return 1.5 * lo, hi

        monkeypatch.setattr(volumes, "cap_integral_bounds", raised)
        (name, row), _ = rows_of(checks._cap_integral_sandwich)
        assert name == "cap_integral_sandwich_lower"
        assert not row.passed and row.lhs >= 1.0

    def test_lowered_upper_delta_eps_bound_fails(self, monkeypatch):
        # rho_eps taken at H = 1 keeps delta_eps at its H = 1 value while
        # the bounds at H fall by H^(-2/alpha); at H = 10 that is at
        # least 2 log 10 = 4.61 in log, past the largest log margin of
        # the upper bound on the grid, 3.842
        rho_eps = bounds.rho_eps
        monkeypatch.setattr(bounds, "rho_eps",
                            lambda n, beta, sigma, H, eps:
                            rho_eps(n, beta, sigma, 1.0, eps))
        upper = [(params, row) for name, params, row
                 in checks._delta_eps_sandwich(True, 3, 1)
                 if name == "delta_eps_sandwich_upper"]
        assert len(upper) == 216
        for params, row in upper:
            if params.endswith(" H=1"):
                assert row.passed, params
            if params.endswith(" H=10"):
                assert not row.passed, params

    def test_halved_rho_eps_fails_every_lower_delta_eps_row(
            self, monkeypatch):
        # halving the radius divides I_n(rho) by at least 2^n, since the
        # integrand's 1/sqrt(1 - r^2) grows with r; n ln 2 exceeds
        # ln(pi n / 2) = -ln q, the width of the sandwich in log
        rho_eps = bounds.rho_eps
        monkeypatch.setattr(bounds, "rho_eps",
                            lambda *args: 0.5 * rho_eps(*args))
        lower = [row for name, _, row in checks._delta_eps_sandwich(True, 3, 1)
                 if name == "delta_eps_sandwich_lower"]
        assert len(lower) == 216
        assert not any(row.passed for row in lower)

    @pytest.mark.parametrize("delta", [1.0, 0.0], ids=["one", "zero"])
    def test_delta_eps_outside_unit_interval_fails(self, monkeypatch, delta):
        # t_eps > t0 rests on 0 < delta_eps < 1 (bounds.t_eps): one point
        # whose delta_eps, the lower sandwich row's lhs, leaves that
        # interval fails the row
        assert rows_of(checks._delta_eps_sandwich)[-1] == (
            "t_eps_exceeds_t0", CheckRow(0.0, 0.0, True))
        sandwich = bounds.delta_eps_sandwich
        calls = []

        def one_off(*key):
            lower, upper = sandwich(*key)
            calls.append(key)
            if len(calls) == 1:
                lower = dataclasses.replace(lower, lhs=delta)
            return lower, upper

        monkeypatch.setattr(bounds, "delta_eps_sandwich", one_off)
        rows = rows_of(checks._delta_eps_sandwich)
        assert len(calls) == 216 and len(rows) == 433
        assert rows[-1] == ("t_eps_exceeds_t0", CheckRow(1.0, 0.0, False))

    def test_broken_small_calc_check_fails(self, monkeypatch):
        # a checker that compares its sides the wrong way round
        check = bounds.small_calc_check

        def swapped(n):
            row = check(n)
            return dataclasses.replace(row, lhs=row.rhs, rhs=row.lhs,
                                       passed=row.rhs <= row.lhs)

        monkeypatch.setattr(bounds, "small_calc_check", swapped)
        (name, row), = rows_of(checks._small_calc)
        assert name == "small_calc"
        assert not row.passed
        assert row.lhs == len(checks.small_calc_grid(10 ** 6, 30))

    def test_nan_smoothness_row_fails(self, monkeypatch):
        # a NaN ratio past the first row: max() over |ratio - alpha|
        # skips it, the row's own verdict does not
        check = bounds.smoothness_check
        calls = []

        def second_nan(law, rho, tol):
            calls.append(1)
            row = check(law, rho, tol)
            if len(calls) == 2:
                return CheckRow(math.nan, row.rhs, False)
            return row

        (name, row), = rows_of(checks._smoothness_ratio_limit)
        assert name == "smoothness_ratio_limit" and row.passed
        monkeypatch.setattr(bounds, "smoothness_check", second_nan)
        (_, row), = rows_of(checks._smoothness_ratio_limit)
        assert len(calls) > 2
        assert not row.passed and row.lhs <= row.rhs


class TestTailRows:
    """A tail row of verify reports the largest Wilson lower limit over
    the bound among the thresholds the bound covers, against 1, and
    passes while no threshold is flagged."""

    @staticmethod
    def faked_rows(monkeypatch, tail_rows):
        def tail(cfg):
            return montecarlo.TailReport(config={}, rows=tail_rows)

        def expect(cfg):
            return montecarlo.ExpectationReport(
                config={}, mean_ln_c=1.0, stderr=0.0, n_samples=1,
                n_effective=1, n_redrawn=0, bound=2.0, margin=1.0)

        monkeypatch.setattr(montecarlo, "estimate_tail", tail)
        monkeypatch.setattr(montecarlo, "estimate_expectation", expect)
        return {name: row for name, row
                in rows_of(checks._tail_and_expectation)
                if name.startswith("tail_")}

    @staticmethod
    def tail_row(lower, bound, applicable):
        return montecarlo.TailRow(
            t=2.0, count=1, survival=0.1, wilson_lower=lower,
            wilson_upper=1.0, bound=bound, bound_applicable=applicable,
            violation=applicable and lower > bound)

    def test_largest_ratio_where_the_bound_applies(self, monkeypatch):
        rows = self.faked_rows(monkeypatch, [
            self.tail_row(0.01, 0.1, True), self.tail_row(0.03, 0.1, True),
            self.tail_row(0.5, 0.1, False)])
        assert len(rows) == 5
        for row in rows.values():
            assert row == CheckRow(0.03 / 0.1, 1.0, True)

    def test_no_applicable_threshold_reads_zero(self, monkeypatch):
        rows = self.faked_rows(monkeypatch, [self.tail_row(0.5, 0.1, False)])
        assert set(rows.values()) == {CheckRow(0.0, 1.0, True)}

    def test_flagged_threshold_fails(self, monkeypatch):
        rows = self.faked_rows(monkeypatch, [
            self.tail_row(0.2, 0.1, True), self.tail_row(0.01, 0.1, True)])
        assert set(rows.values()) == {CheckRow(0.2 / 0.1, 1.0, False)}


def test_nan_margin_is_a_violation(monkeypatch):
    # an expectation whose margin is NaN shows nothing about the bound:
    # the report flags it, and verify's expect rows read that flag
    report = montecarlo.ExpectationReport(
        config={}, mean_ln_c=math.nan, stderr=math.nan, n_samples=1,
        n_effective=1, n_redrawn=0, bound=2.0, margin=math.nan)
    assert report.has_violation
    monkeypatch.setattr(montecarlo, "estimate_expectation",
                        lambda cfg: report)
    monkeypatch.setattr(montecarlo, "estimate_tail",
                        lambda cfg: montecarlo.TailReport(config={}, rows=[]))
    rows = {name: row for name, row in rows_of(checks._tail_and_expectation)
            if name.startswith("expect_")}
    assert len(rows) == 2
    assert not any(row.passed for row in rows.values())


class TestOracleControls:
    """Rows that compare a value with an oracle, an identity or the
    law itself: pushing one side past the row's tolerance fails it."""

    def test_scaled_series_fails_closed_form(self, monkeypatch):
        series = volumes.cap_integral_series
        monkeypatch.setattr(volumes, "cap_integral_series",
                            lambda m, s: series(m, s) * (1.0 + 1e-9))
        name, _, row = only_row(checks._cap_integral_closed_form)
        assert name == "cap_integral_closed_form"
        assert not row.passed and row.lhs > 9e-10

    def test_scaled_cap_measure_fails_half_sphere(self, monkeypatch):
        # sphere_volume feeds both sides, so the cap measure is pushed
        measure = volumes.cap_measure
        monkeypatch.setattr(volumes, "cap_measure",
                            lambda n, s: measure(n, s) * (1.0 + 1e-11))
        name, _, row = only_row(checks._half_sphere_identity)
        assert name == "half_sphere_identity"
        assert not row.passed and row.lhs > 9e-12

    def test_rising_cap_integral_fails_monotone(self, monkeypatch):
        # I_m = m at one sigma rises at each of its 49 steps
        exact = volumes.cap_integral
        sigma = checks._SIG_GRID[7]
        monkeypatch.setattr(volumes, "cap_integral",
                            lambda m, s: float(m) if s == sigma
                            else exact(m, s))
        name, _, row = only_row(checks._cap_integral_monotone_m)
        assert name == "cap_integral_monotone_m"
        assert row == CheckRow(49.0, 0.0, False)

    def test_rim_law_fails_ball_maximizer(self, monkeypatch):
        # a radius law pushed toward the rim, the uniform CDF to the
        # fourth power: an outer shell outweighs the ball of its
        # uniform mass
        def rim_law(cap, beta):
            uniform = uniform_law(cap)
            return SimpleNamespace(
                cap=cap, radial_cdf=lambda r: uniform.radial_cdf(r) ** 4)

        assert all(row.passed for _, _, row
                   in checks._ball_maximizer(True, 3, 1))
        monkeypatch.setattr(checks, "AdversarialLaw", rim_law)
        rows = list(checks._ball_maximizer(True, 3, 1))
        assert len(rows) == 3
        assert all(row == CheckRow(1.0, 0.0, False) for _, _, row in rows)

    def test_scaled_matrix_c_fails_eigen_oracle(self, monkeypatch):
        problem = condnum.matrix_problem

        def scaled(m):
            p = problem(m)
            return dataclasses.replace(
                p, evaluate_batch=lambda z: p.evaluate_batch(z) * (1 + 1e-6))

        assert only_row(checks._sigma_min_eigen_oracle)[2].passed
        monkeypatch.setattr(condnum, "matrix_problem", scaled)
        name, _, row = only_row(checks._sigma_min_eigen_oracle)
        assert name == "sigma_min_eigen_oracle"
        assert not row.passed and row.lhs > 1e-8

    def test_uniform_reference_fails_ks_radial(self, monkeypatch):
        # the uniform law as every reference: each pole law is rejected
        ks = montecarlo.ks_radial_test
        monkeypatch.setattr(
            montecarlo, "ks_radial_test",
            lambda law, n, seed, reference=None:
            ks(law, n, seed, reference=uniform_law(law.cap)))
        rows = [(params, row) for name, params, row
                in checks._ks_radial(True, 3, 1) if name == "ks_radial"]
        assert len(rows) == 8
        for params, row in rows:
            assert row.passed == (" beta=0 " in params), params

    def test_own_reference_fails_ks_negative_control(self, monkeypatch):
        # the law itself as the reference: the control does not fire
        ks = montecarlo.ks_radial_test
        monkeypatch.setattr(
            montecarlo, "ks_radial_test",
            lambda law, n, seed, reference=None: ks(law, n, seed))
        rows = list(checks._ks_radial(True, 3, 1))
        assert all(row.passed for *_, row in rows[:-1])
        name, _, row = rows[-1]
        assert name == "ks_negative_control"
        assert not row.passed and row.lhs <= row.rhs


# each hard row of verify and a test in which it must fail
CONTROLS = {
    "cap_integral_closed_form":
        TestOracleControls.test_scaled_series_fails_closed_form,
    "cap_integral_mpmath": TestMpmathRow.test_scaled_cap_integral_fails,
    "half_sphere_identity":
        TestOracleControls.test_scaled_cap_measure_fails_half_sphere,
    "cap_integral_sandwich_lower":
        TestReWiredRows.test_raised_lower_cap_integral_bound_fails,
    "cap_integral_monotone_m":
        TestOracleControls.test_rising_cap_integral_fails_monotone,
    "small_calc": TestReWiredRows.test_broken_small_calc_check_fails,
    "boosting_inequality": TestBoostingRow.test_shifted_lhs_fails,
    "delta_eps_sandwich_lower":
        TestReWiredRows.test_halved_rho_eps_fails_every_lower_delta_eps_row,
    "delta_eps_sandwich_upper":
        TestReWiredRows.test_lowered_upper_delta_eps_bound_fails,
    "t_eps_exceeds_t0":
        TestReWiredRows.test_delta_eps_outside_unit_interval_fails,
    "smoothness_ratio_limit": TestReWiredRows.test_nan_smoothness_row_fails,
    "ball_maximizer": TestOracleControls.test_rim_law_fails_ball_maximizer,
    "ks_radial": TestOracleControls.test_uniform_reference_fails_ks_radial,
    "ks_negative_control":
        TestOracleControls.test_own_reference_fails_ks_negative_control,
    "sigma_min_eigen_oracle":
        TestOracleControls.test_scaled_matrix_c_fails_eigen_oracle,
    **dict.fromkeys(("tail_uniform_center", "tail_uniform_pole",
                     "tail_boosted_pole", "tail_matrix_uniform",
                     "tail_matrix_boosted"),
                    TestTailRows.test_flagged_threshold_fails),
    **dict.fromkeys(("expect_uniform", "expect_adversarial"),
                    test_nan_margin_is_a_violation),
}


def test_every_hard_row_has_a_negative_control():
    names = {name for entry in checks.BATTERY
             for name, _, _ in entry(True, 3, 1)}
    assert set(CONTROLS) == names - checks.SOFT
    assert all(test.__name__.startswith("test_")
               for test in CONTROLS.values())
