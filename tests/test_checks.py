"""Battery rows of `capsmooth verify` that rest on a lemma or an oracle:
the boosting inequality checked at rho_eps alone, and the mpmath
cross-check of I_m, each with a negative control that must fail it.
Also a negative control for each row that reads its checker's
CheckRows: the I_m and delta_eps sandwiches, t_eps > t0, small_calc and
the smoothness ratio, whose rows fail on NaN; and the margin that the
Monte Carlo tail rows report."""

import dataclasses
import math

import numpy as np
import pytest

from capsmooth import bounds, checks, montecarlo, volumes
from capsmooth.bounds import CheckRow


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

    def test_raised_t0_log_fails(self, monkeypatch):
        # the smallest t_eps - t0_log on the grid is 2.871
        (name, row), = rows_of(checks._t_eps_exceeds_t0)
        assert (name, row) == ("t_eps_exceeds_t0", CheckRow(0.0, 0.0, True))
        t0_log = bounds.t0_log
        monkeypatch.setattr(bounds, "t0_log",
                            lambda n, d, sigma: t0_log(n, d, sigma) + 3.0)
        (_, row), = rows_of(checks._t_eps_exceeds_t0)
        assert not row.passed and 1.0 <= row.lhs < 3 * 648

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
