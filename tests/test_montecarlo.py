"""Monte Carlo harness: Wilson intervals, experiment configs, tail and
expectation estimators, the radial KS check, and report serialization."""

import dataclasses
import hashlib
import json
import math
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsmooth import bounds, condnum, montecarlo
from capsmooth.condnum import ConicProblem, hyperplane_problem, matrix_problem
from capsmooth.distributions import AdversarialLaw, Cap, normalize_profile
from capsmooth.geometry import normalize
from capsmooth.montecarlo import (ExperimentConfig, estimate_expectation,
                                  estimate_tail, ks_radial_test,
                                  wilson_interval)


def e0(n):
    v = np.zeros(n + 1)
    v[0] = 1.0
    return v


def uniform_law(n, sigma=0.5):
    return AdversarialLaw(Cap(e0(n), sigma), 0.0)


def steep_law():
    # beta = 0 with a falling profile on n = 3, sigma = 0.5: h = 1 on
    # the first two of 201 nodes r_i = i / 400 and 0 after, so the
    # normalized sup is H = 2.3e6 and the uniform theorems do not cover it
    r = np.arange(201) / 400.0
    h = (r <= 1.0 / 400.0).astype(float)
    profile = normalize_profile(np.column_stack((r, h)), 3, 0.0, 0.5)
    return AdversarialLaw(Cap(e0(3), 0.5), 0.0, profile)


class TestWilson:
    def test_contains_point_estimate(self):
        for k, n in ((0, 10), (3, 10), (10, 10), (500, 1000)):
            lo, hi = wilson_interval(k, n)
            assert lo <= k / n <= hi

    def test_clipped_to_unit_interval(self):
        lo, hi = wilson_interval(0, 5)
        assert lo == 0.0 and hi < 1.0
        lo, hi = wilson_interval(5, 5)
        assert lo > 0.0 and hi == 1.0

    def test_shrinks_with_n(self):
        w1 = np.diff(wilson_interval(50, 100))[0]
        w2 = np.diff(wilson_interval(5000, 10000))[0]
        assert w2 < w1 / 5

    def test_matches_hand_computation(self):
        # k=8, n=20, z=1.96...; checked against the closed form
        lo, hi = wilson_interval(8, 20)
        z = montecarlo.WILSON_Z
        p, nt = 0.4, 20.0
        denom = 1 + z * z / nt
        center = (p + z * z / (2 * nt)) / denom
        half = z / denom * math.sqrt(p * (1 - p) / nt
                                     + z * z / (4 * nt * nt))
        assert np.isclose(lo, center - half, rtol=1e-15)
        assert np.isclose(hi, center + half, rtol=1e-15)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError):
            wilson_interval(-1, 4)


class TestExperimentConfig:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ExperimentConfig(hyperplane_problem(3), uniform_law(4),
                             samples=10, seed=0)

    def test_scale_defaults(self):
        cfg = ExperimentConfig(hyperplane_problem(3), uniform_law(3),
                               samples=10, seed=0)
        assert cfg.scale == "linear"
        poley = AdversarialLaw(Cap(e0(3), 0.5), 1.5)
        cfg = ExperimentConfig(hyperplane_problem(3), poley,
                               samples=10, seed=0)
        assert cfg.scale == "log"

    def test_falling_profile_defaults_to_log(self):
        law = steep_law()
        assert law.beta == 0.0 and law.H > 1e6
        cfg = ExperimentConfig(hyperplane_problem(3), law, samples=10, seed=0)
        assert cfg.scale == "log"

    def test_explicit_scale_kept(self):
        poley = AdversarialLaw(Cap(e0(3), 0.5), 1.5)
        cfg = ExperimentConfig(hyperplane_problem(3), poley,
                               samples=10, seed=0, scale="linear")
        assert cfg.scale == "linear"
        with pytest.raises(ValueError):
            ExperimentConfig(hyperplane_problem(3), uniform_law(3),
                             samples=10, seed=0, scale="loglog")

    def test_t_grid_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(hyperplane_problem(3), uniform_law(3),
                             samples=1, seed=0, t_grid=[])
        with pytest.raises(ValueError):
            ExperimentConfig(hyperplane_problem(3), uniform_law(3),
                             samples=1, seed=0, t_grid=[1.0, 1.0, 2.0])

    @pytest.mark.parametrize("grid", [[math.nan], [math.nan, 1.0],
                                      [1.0, math.nan], [2.0, math.inf]])
    def test_t_grid_must_be_finite(self, grid):
        # every comparison with NaN is false, so the increasing test
        # alone passes a NaN
        with pytest.raises(ValueError, match="finite"):
            ExperimentConfig(hyperplane_problem(3), uniform_law(3),
                             samples=1, seed=0, t_grid=grid)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(hyperplane_problem(3), uniform_law(3),
                             samples=0, seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(hyperplane_problem(3), uniform_law(3),
                             samples=10, seed=-1)
        with pytest.raises(ValueError):
            ExperimentConfig(hyperplane_problem(3), uniform_law(3),
                             samples=10, seed=0, workers=0)

    def test_echo_excludes_execution_details(self):
        cfg = ExperimentConfig(hyperplane_problem(3), uniform_law(3),
                               samples=10, seed=0, workers=4)
        echo = cfg.echo()
        assert "workers" not in echo
        assert echo["problem"] == "hyperplane"
        assert echo["samples"] == 10


class TestEstimateTail:
    def test_needs_t_grid(self):
        cfg = ExperimentConfig(hyperplane_problem(3), uniform_law(3),
                               samples=10, seed=0)
        with pytest.raises(ValueError):
            estimate_tail(cfg)

    def test_single_sample(self):
        # C >= 1 always, so a threshold below 1 is always exceeded and
        # an astronomically large one never is
        cfg = ExperimentConfig(hyperplane_problem(3), uniform_law(3),
                               samples=1, seed=7, t_grid=[0.5, 1e15])
        rep = estimate_tail(cfg)
        assert [r.count for r in rep.rows] == [1, 0]
        assert rep.rows[0].survival == 1.0
        assert not rep.rows[0].bound_applicable  # below t0
        assert rep.rows[1].bound_applicable
        assert not rep.has_violation

    def test_counts_weakly_decreasing(self):
        grid = list(np.geomspace(1.0, 1e4, 12))
        cfg = ExperimentConfig(hyperplane_problem(3), uniform_law(3),
                               samples=4000, seed=11, t_grid=grid)
        rep = estimate_tail(cfg)
        counts = [r.count for r in rep.rows]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_uniform_tail_within_bound(self):
        grid = list(np.geomspace(bounds.t0(3, 1, 0.5), 1e4, 8))
        cfg = ExperimentConfig(hyperplane_problem(3), uniform_law(3),
                               samples=50000, seed=3, t_grid=grid)
        rep = estimate_tail(cfg)
        assert all(r.bound_applicable for r in rep.rows)
        assert not rep.has_violation

    def test_boosted_column_threshold(self):
        law = AdversarialLaw(Cap(e0(3), 0.5), 1.5)
        n, d, sigma = 3, 1, 0.5
        alpha = 0.5
        delta = bounds.delta_eps(n, 1.5, sigma, 1.0, 0.5 * alpha)
        thr = bounds.t_eps(n, d, sigma, delta)
        grid = [0.5 * thr, 1.2 * thr]
        cfg = ExperimentConfig(hyperplane_problem(3), law, samples=1000,
                               seed=5, t_grid=grid)
        rep = estimate_tail(cfg)
        assert rep.config["scale"] == "log"
        assert not rep.rows[0].bound_applicable
        assert rep.rows[1].bound_applicable
        assert np.isclose(rep.rows[1].bound,
                          bounds.boosted_tail_bound(n, d, sigma, 1.5,
                                                    grid[1]), rtol=1e-14)

    def test_violation_flag_fires(self):
        # positive control: C far above every threshold makes the
        # survival 1, above the bound wherever the theorem applies
        def evaluate_batch(z):
            return np.full(len(z), 1e12)

        prob = ConicProblem("constant", 3, 1, evaluate_batch, e0(3))
        cfg = ExperimentConfig(prob, uniform_law(3), samples=1000, seed=0,
                               t_grid=[1.0, 100.0, 1e3, 1e4],
                               scale="linear")
        rep = estimate_tail(cfg)
        assert [r.violation for r in rep.rows] == [False, True, True, True]
        assert all(r.violation == r.bound_applicable for r in rep.rows)
        assert rep.has_violation

    def test_linear_scale_with_pole_has_no_bound(self):
        law = AdversarialLaw(Cap(e0(3), 0.5), 1.0)
        cfg = ExperimentConfig(hyperplane_problem(3), law, samples=100,
                               seed=0, t_grid=[100.0], scale="linear")
        rep = estimate_tail(cfg)
        assert not rep.rows[0].bound_applicable
        assert not rep.rows[0].violation

    def test_worker_count_invisible(self):
        grid = [2.0, 20.0, 200.0]
        mk = lambda w: ExperimentConfig(hyperplane_problem(3),
                                        uniform_law(3), samples=30000,
                                        seed=42, t_grid=grid, workers=w)
        rep1 = estimate_tail(mk(1))
        rep4 = estimate_tail(mk(4))
        assert rep1.to_csv() == rep4.to_csv()
        assert rep1 == rep4


class TestThresholdGrid:
    @pytest.mark.parametrize("problem, law, scale", [
        (hyperplane_problem(3),
         AdversarialLaw(Cap(normalize(np.ones(4)), 0.5), 0.0), "linear"),
        (hyperplane_problem(3), uniform_law(3), "linear"),
        (hyperplane_problem(3), AdversarialLaw(Cap(e0(3), 0.5), 1.5), "log"),
        (matrix_problem(3),
         AdversarialLaw(Cap(matrix_problem(3).ill_posed, 0.5), 0.0),
         "linear"),
        (matrix_problem(3),
         AdversarialLaw(Cap(matrix_problem(3).ill_posed, 0.5), 4.0), "log")],
        ids=["uniform-center", "uniform-pole", "boosted-pole",
             "matrix-uniform", "matrix-boosted"])
    def test_verify_grids(self, problem, law, scale):
        # the 12 thresholds of each tail run of verify, bit for bit
        cfg = ExperimentConfig(problem, law, 10, 0, scale=scale)
        lo, _ = bounds.tail_theorem(problem.n, problem.degree, 0.5,
                                    law.beta, law.H, scale)
        expected = (np.geomspace(lo, 1e4 * lo, 12) if scale == "linear"
                    else np.linspace(lo, lo + 8.0, 12))
        np.testing.assert_array_equal(montecarlo.threshold_grid(cfg, 12),
                                      expected)

    def test_pinned_ends(self):
        cfg = ExperimentConfig(hyperplane_problem(3), uniform_law(3), 10, 0)
        np.testing.assert_allclose(
            montecarlo.threshold_grid(cfg, 3, 20.0, 2000.0),
            [20.0, 200.0, 2000.0], rtol=1e-15)
        np.testing.assert_array_equal(
            montecarlo.threshold_grid(dataclasses.replace(cfg, scale="log"),
                                      3, 1.0, 5.0),
            [1.0, 3.0, 5.0])
        # the default span runs from the given first threshold
        assert montecarlo.threshold_grid(cfg, 2, 20.0)[-1] == 2e5

    @pytest.mark.parametrize("law, scale, ends, message", [
        (steep_law(), "linear", (None, None), "no tail theorem"),
        (uniform_law(3), "linear", (math.nan, None), "finite"),
        (uniform_law(3), "linear", (0.0, 10.0), "0 < t-min < t-max"),
        (uniform_law(3), "log", (5.0, 4.0), "t-min < t-max"),
        (uniform_law(3), "linear", (1.0, 2.0), "below")],
        ids=["no-theorem", "nan", "nonpositive", "order", "below"])
    def test_rejected(self, law, scale, ends, message):
        cfg = ExperimentConfig(hyperplane_problem(3), law, 10, 0,
                               scale=scale)
        with pytest.raises(ValueError, match=message):
            montecarlo.threshold_grid(cfg, 5, *ends)


class TestEstimateExpectation:
    def test_margin_positive_on_easy_case(self):
        cfg = ExperimentConfig(hyperplane_problem(3), uniform_law(3),
                               samples=20000, seed=1)
        rep = estimate_expectation(cfg)
        assert rep.margin > 0
        assert not rep.has_violation
        assert rep.n_effective == 20000
        assert rep.n_redrawn == 0
        assert np.isclose(rep.bound, 8.583518938456109, rtol=1e-13)

    def test_falling_profile_held_to_pole_bound(self):
        # beta = 0 alone does not make the uniform bound 8.58 apply
        law = steep_law()
        rep = estimate_expectation(ExperimentConfig(
            hyperplane_problem(3), law, samples=5000, seed=1))
        assert rep.bound == bounds.adversarial_expectation_bound(
            3, 1, 0.5, 0.0, law.H)
        assert rep.bound == pytest.approx(37.5736, abs=1e-4)
        assert not rep.has_violation

    def test_redraw_on_infinite_values(self):
        # a fattened ill-posed set makes exact infinities show up with
        # positive probability; the estimator must replace them all
        def evaluate_batch(z):
            z = np.asarray(z, dtype=float)
            with np.errstate(divide="ignore"):
                c = np.linalg.norm(z, axis=1) / np.abs(z[:, 1])
            c[np.abs(z[:, 1]) < 0.02] = np.inf
            return c

        ill = np.zeros(3)
        ill[0] = 1.0
        prob = ConicProblem("fattened", 2, 1, evaluate_batch, ill)
        law = AdversarialLaw(Cap(e0(2), 1.0), 0.0)
        cfg = ExperimentConfig(prob, law, samples=5000, seed=13)
        rep = estimate_expectation(cfg)
        assert rep.n_redrawn > 0
        assert rep.n_effective == 5000
        assert math.isfinite(rep.mean_ln_c)

    def test_deterministic_across_workers(self):
        mk = lambda w: ExperimentConfig(hyperplane_problem(3),
                                        uniform_law(3), samples=25000,
                                        seed=9, workers=w)
        r1 = estimate_expectation(mk(1))
        r4 = estimate_expectation(mk(4))
        assert r1.to_csv() == r4.to_csv()
        assert r1 == r4


class TestKSRadial:
    def test_passes_against_own_law(self):
        law = AdversarialLaw(Cap(e0(3), 0.5), 1.5)
        res = ks_radial_test(law, 5000, seed=21)
        assert res.passed
        assert res.lhs <= res.rhs
        assert np.isclose(res.rhs, 1.63 / math.sqrt(5000), rtol=1e-15)

    def test_negative_control_fails(self):
        law = AdversarialLaw(Cap(e0(3), 1.0), 1.5)
        wrong = AdversarialLaw(Cap(e0(3), 1.0), 0.0)
        res = ks_radial_test(law, 5000, seed=21, reference=wrong)
        assert not res.passed

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            ks_radial_test(uniform_law(3), 999, seed=0)


# Warm up one pole-law tail run, then count the minor page faults of a
# 20-batch run; ctypes.CDLL is wrapped to record who looks up mallopt.
_FAULTS_CODE = """
import ctypes, json, resource
looked_up = []

class Recorded(ctypes.CDLL):
    def __getattr__(self, name):
        if name == "mallopt":
            looked_up.append(name)
        return super().__getattr__(name)

ctypes.CDLL = Recorded
import capsmooth, capsmooth.cli
at_import = len(looked_up)
from capsmooth import condnum, montecarlo
from capsmooth.distributions import AdversarialLaw, Cap
problem = condnum.hyperplane_problem(3)
law = AdversarialLaw(Cap(problem.ill_posed, 0.5), 1.5)

def tail(batches, seed):
    montecarlo.estimate_tail(montecarlo.ExperimentConfig(
        problem, law, batches * montecarlo.BATCH_SIZE, seed,
        t_grid=[0.0, 1.0, 2.0], scale="log"))

tail(1, 1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
tail(20, 2)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({"at_import": at_import, "after_run": len(looked_up),
                  "faults": after - before}))
"""


@pytest.mark.skipif(sys.platform != "linux"
                    or platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is glibc's mallopt")
def test_batches_do_not_refault_memory(child_env):
    # with glibc's default thresholds every batch gave its freed rows
    # back to the kernel and faulted them in again, 500 to 800 minor
    # faults per batch here; the pinned heap leaves a few in all
    proc = subprocess.run([sys.executable, "-c", _FAULTS_CODE],
                          capture_output=True, text=True, check=True,
                          env=child_env)
    got = json.loads(proc.stdout)
    assert got["at_import"] == 0
    assert got["after_run"] > 0
    assert got["faults"] < 64 * 20


class TestSerialization:
    def tail_report(self):
        cfg = ExperimentConfig(hyperplane_problem(3), uniform_law(3),
                               samples=2000, seed=17,
                               t_grid=[2.0, 50.0])
        return estimate_tail(cfg)

    def test_csv_header(self):
        csv = self.tail_report().to_csv()
        assert csv.splitlines()[0] == ("t,count,survival,wilson_lower,"
                                       "wilson_upper,bound,"
                                       "bound_applicable,violation")

    def test_csv_roundtrip_floats(self):
        rep = self.tail_report()
        lines = rep.to_csv().splitlines()[1:]
        for line, row in zip(lines, rep.rows):
            cells = line.split(",")
            assert float(cells[0]) == row.t
            assert int(cells[1]) == row.count
            assert float(cells[2]) == row.survival
            assert float(cells[3]) == row.wilson_lower
            # nan bound serializes as the literal string "nan"
            if row.bound != row.bound:
                assert cells[5] == "nan"
            else:
                assert float(cells[5]) == row.bound

    def test_json_schema(self):
        rep = self.tail_report()
        doc = rep.to_json_dict()
        assert doc["schema"] == "capsmooth-report-v1"
        assert doc["kind"] == "tail"
        assert len(doc["rows"]) == 2
        # below-t0 bound is nan in the row but null in JSON
        assert doc["rows"][0]["bound"] is None
        json.dumps(doc)  # must be serializable as-is

    def test_expectation_report_serialization(self):
        cfg = ExperimentConfig(hyperplane_problem(3), uniform_law(3),
                               samples=2000, seed=17)
        rep = estimate_expectation(cfg)
        csv = rep.to_csv()
        assert csv.splitlines()[0] == ("n_samples,n_effective,n_redrawn,"
                                       "mean_ln_c,stderr,bound,margin")
        doc = rep.to_json_dict()
        assert doc["schema"] == "capsmooth-report-v1"
        assert doc["kind"] == "expectation"
        assert doc["margin"] == rep.margin
        json.dumps(doc)


finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          allow_subnormal=True)
# values in [-1, 1] times 2^e for |e| <= 1000: magnitudes 1e-300 to
# 1e300 and every sign
scaled_floats = st.builds(math.ldexp, st.floats(-1.0, 1.0),
                          st.integers(-1000, 1000))


class TestExactSum:
    """montecarlo._exact_sum is math.fsum's correctly rounded sum."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(scaled_floats, finite_floats.filter(
        lambda x: abs(x) < 1e300)), max_size=200))
    def test_matches_fsum(self, xs):
        got = montecarlo._exact_sum(np.array(xs, dtype=float))
        want = math.fsum(xs)
        assert got == want and math.copysign(1.0, got) == math.copysign(
            1.0, want)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(scaled_floats, min_size=1, max_size=100),
           st.lists(st.floats(0.0, 1e-300) | st.just(5e-324), max_size=20))
    def test_cancellation_and_subnormals(self, xs, tiny):
        # every value with its negative, plus small leftovers: the sum
        # is the leftovers alone
        vals = xs + [-x for x in xs] + tiny + [-t for t in tiny[1:]]
        arr = np.array(vals)
        np.random.default_rng(len(vals)).shuffle(arr)
        assert montecarlo._exact_sum(arr) == math.fsum(arr.tolist())

    def test_batch_of_logs(self):
        vals = np.log(np.random.default_rng(3).pareto(1.0, 16384) + 1.0)
        for x in (vals, np.square(vals)):
            assert montecarlo._exact_sum(x) == math.fsum(x.tolist())

    def test_non_finite_defers_to_fsum(self):
        assert montecarlo._exact_sum(np.array([1.0, math.inf])) == math.inf
        assert math.isnan(montecarlo._exact_sum(np.array([1.0, math.nan])))
        with pytest.raises(ValueError):
            montecarlo._exact_sum(np.array([math.inf, -math.inf]))
        assert montecarlo._exact_sum(np.array([])) == 0.0


def matrix_laws(m, sigma):
    # (name, law) on matrix:m: the pole law at ill_posed, the uniform law
    # at a random centre, and the benchmark's tabulated law 2 - r/sigma
    problem = matrix_problem(m)
    beta = 4.0 if m == 3 else 1.5
    center = normalize(montecarlo.stream_rng(
        m, montecarlo.CENTER_STREAM).standard_normal(m * m))
    profile = normalize_profile(lambda r: 2.0 - r / sigma, problem.n, beta,
                                sigma, grid_points=1025)
    pole = Cap(problem.ill_posed, sigma)
    return [("pole", AdversarialLaw(pole, beta)),
            ("uniform", AdversarialLaw(Cap(center, sigma), 0.0)),
            ("tabulated", AdversarialLaw(pole, beta, profile))]


def quantile_grid(problem, law, scale):
    # thresholds at quantiles 0.9 ... 0.999 of C on a pilot batch drawn
    # from another stream, so many rows lie near the screen's cut (a
    # median grid would put the cut below 2, and no bound below it)
    c = problem.evaluate_batch(law.sample(montecarlo.stream_rng(99, 0),
                                          size=4096))
    grid = np.quantile(c, [0.9, 0.95, 0.99, 0.999])
    return list(np.log(grid) if scale == "log" else grid)


def unscreened(problem):
    return dataclasses.replace(problem, bound_batch=None)


class TestMatrixWorkers:
    """Criterion 14 on the matrix instances: tail and expectation reports
    are byte-identical at one and two workers, on a law whose rows take
    both routes to sigma_min (closed form, and the SVD past the cut),
    and for matrix:4, whose rows all take the SVD."""

    SAMPLES = 2 * montecarlo.BATCH_SIZE + 1000

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_reports_byte_identical(self, m):
        # sigma = 1e-6 at the ill-posed centre: C from 1e6 up, and the
        # rows nearest Sigma lie past the cut
        problem = matrix_problem(m)
        law = AdversarialLaw(Cap(problem.ill_posed, 1e-6), 0.0)
        if problem.bound_batch is not None:
            z = law.sample(montecarlo.stream_rng(5, 0), size=4096)
            past = np.count_nonzero(~(problem.bound_batch(z)
                                      <= condnum._CLOSED_CUT))
            assert 0 < past < len(z) // 2
        text = lambda rep: json.dumps(rep.to_json_dict(), sort_keys=True)
        for estimate, grid in ((estimate_tail, [2e6, 5e6, 2e7]),
                               (estimate_expectation, None)):
            one, two = (estimate(ExperimentConfig(
                problem, law, self.SAMPLES, seed=5, t_grid=grid,
                scale="linear", workers=w)) for w in (1, 2))
            assert one.to_csv() == two.to_csv()
            assert text(one) == text(two)


class TestTailScreen:
    """estimate_tail evaluates only rows whose bound reaches the cut,
    and its counts are those of evaluating every row."""

    SAMPLES = montecarlo.BATCH_SIZE + 3000

    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    @pytest.mark.parametrize("m", [2, 3])
    def test_counts_exact(self, m, sigma):
        problem = matrix_problem(m)
        for name, law in matrix_laws(m, sigma):
            for scale in ("linear", "log"):
                grid = quantile_grid(problem, law, scale)
                mk = lambda p, w: ExperimentConfig(
                    p, law, self.SAMPLES, seed=7, t_grid=grid, workers=w,
                    scale=scale)
                want = estimate_tail(mk(unscreened(problem), 1))
                assert want.n_evaluated == self.SAMPLES
                for workers in (1, 2):
                    got = estimate_tail(mk(problem, workers))
                    assert got.to_csv() == want.to_csv(), (name, scale)
                    assert got.n_evaluated < self.SAMPLES, (name, scale)

    def test_loose_bound_caught(self):
        # negative control: a "bound" of C / 4 is not a bound, and rows
        # with C in [t, 2t) are wrongly screened
        problem = matrix_problem(3)
        law = matrix_laws(3, 0.5)[1][1]
        broken = dataclasses.replace(
            problem, bound_batch=lambda z: problem.evaluate_batch(z) / 4.0)
        grid = quantile_grid(problem, law, "linear")
        mk = lambda p: ExperimentConfig(p, law, self.SAMPLES, seed=7,
                                        t_grid=grid, scale="linear")
        assert (estimate_tail(mk(broken)).to_csv()
                != estimate_tail(mk(unscreened(problem))).to_csv())

    def test_every_row_screened(self):
        # C stays far below 1e12 on a cap around the identity, so no row
        # reaches evaluate_batch and every count is zero
        problem = matrix_problem(3)
        law = AdversarialLaw(Cap(normalize(np.eye(3).reshape(-1)), 0.5), 0.0)
        rep = estimate_tail(ExperimentConfig(
            problem, law, self.SAMPLES, seed=3, t_grid=[1e12, 1e13],
            scale="linear"))
        assert rep.n_evaluated == 0
        assert [r.count for r in rep.rows] == [0, 0]

    def test_benchmark_law_evaluates_few(self):
        # the benchmark's tabulated law with the boosted log grid from
        # t_eps: at most 1% of the rows reach evaluate_batch
        problem = matrix_problem(3)
        law = matrix_laws(3, 0.5)[2][1]
        delta = bounds.delta_eps(problem.n, law.beta, 0.5, law.H,
                                 0.5 * (1.0 - law.beta / problem.n))
        lo = bounds.t_eps(problem.n, problem.degree, 0.5, delta)
        rep = estimate_tail(ExperimentConfig(
            problem, law, 50_000, seed=1,
            t_grid=list(np.linspace(lo, lo + 8.0, 25)), scale="log"))
        assert rep.n_evaluated <= 500

    def test_no_bound_evaluates_all(self):
        rep = estimate_tail(ExperimentConfig(
            hyperplane_problem(3), AdversarialLaw(Cap(e0(3), 0.5), 1.5),
            20_000, seed=2, t_grid=[5.0, 10.0]))
        assert rep.n_evaluated == 20_000

    def test_log_grid_past_exp_range(self):
        # exp of the lowest threshold overflows, without a warning: no
        # finite C reaches the grid, and the screen still runs
        problem = matrix_problem(3)
        law = matrix_laws(3, 0.5)[1][1]
        rep = estimate_tail(ExperimentConfig(
            problem, law, 5000, seed=4, t_grid=[800.0, 900.0], scale="log"))
        assert [r.count for r in rep.rows] == [0, 0]
        assert rep.n_evaluated < 5000

    def test_low_grid_skips_the_bound(self):
        # a cut at or below 1 screens nothing, so the bound is not run
        def refuse(z):
            raise AssertionError("bound_batch called")

        problem = dataclasses.replace(matrix_problem(2), bound_batch=refuse)
        law = matrix_laws(2, 0.5)[1][1]
        for grid, scale in (([2.0, 5.0], "linear"), ([0.5, 1.0], "log")):
            rep = estimate_tail(ExperimentConfig(
                problem, law, 1000, seed=0, t_grid=grid, scale=scale))
            assert rep.n_evaluated == 1000

    def test_n_evaluated_serialized(self):
        # the JSON report holds n_evaluated; the CSV and equality do not
        problem = matrix_problem(3)
        law = matrix_laws(3, 0.5)[1][1]
        cfg = lambda p, w=1: ExperimentConfig(p, law, 5000, seed=4,
                                              t_grid=[50.0, 500.0],
                                              scale="linear", workers=w)
        screened = estimate_tail(cfg(problem))
        full = estimate_tail(cfg(unscreened(problem)))
        assert screened.n_evaluated < full.n_evaluated == 5000
        assert screened == full
        assert screened.to_csv() == full.to_csv()
        doc = screened.to_json_dict()
        assert doc["n_evaluated"] == screened.n_evaluated
        assert full.to_json_dict() == dict(doc, n_evaluated=5000)
        # no screen on the hyperplane: every row is evaluated
        plain = estimate_tail(ExperimentConfig(
            hyperplane_problem(3), AdversarialLaw(Cap(e0(3), 0.5), 0.0),
            3000, seed=4, t_grid=[5.0, 10.0]))
        assert plain.to_json_dict()["n_evaluated"] == 3000
        # deterministic: the same bytes at one and two workers
        text = lambda rep: json.dumps(rep.to_json_dict(), sort_keys=True)
        assert text(estimate_tail(cfg(problem, 2))) == text(screened)

    def test_n_infinite_serialized(self):
        # rows with C = inf count as exceeding every threshold; the JSON
        # report counts them, at any worker count, and the CSV and
        # equality do not
        def evaluate_batch(z):
            c = np.linalg.norm(z, axis=1)
            near = np.abs(z[:, 1]) < 0.02
            c[~near] /= np.abs(z[~near, 1])
            c[near] = math.inf
            return c

        prob = ConicProblem("fattened", 3, 1, evaluate_batch, e0(3))
        cfg = lambda w: ExperimentConfig(
            prob, uniform_law(3), montecarlo.BATCH_SIZE + 5000, seed=3,
            t_grid=[2.0, 1e300], scale="linear", workers=w)
        one, two = estimate_tail(cfg(1)), estimate_tail(cfg(2))
        doc = one.to_json_dict()
        assert doc["n_infinite"] == one.rows[-1].count > 0
        text = lambda rep: json.dumps(rep.to_json_dict(), sort_keys=True)
        assert text(one) == text(two)
        assert one == dataclasses.replace(one, n_infinite=0)
        assert "n_infinite" not in one.to_csv()
        # none on a law off Sigma
        rep = estimate_tail(ExperimentConfig(
            hyperplane_problem(3), uniform_law(3), 3000, seed=4,
            t_grid=[5.0, 10.0]))
        assert rep.to_json_dict()["n_infinite"] == 0


class TestSurvivorCount:
    """estimate_tail counts the thresholds only on the rows at or above
    the lowest one; on scripted C values its counts, n_infinite and
    n_evaluated are those of counting every row at every threshold."""

    GRID = list(np.linspace(10.0, 34.0, 25))
    REST = 700

    @classmethod
    def batches(cls):
        """Rows (C, bound) of three batches: a mixed one; one whose C
        all lie below the grid, with no bound to screen them; and one
        the screen empties."""
        g = np.random.default_rng(5)
        n = montecarlo.BATCH_SIZE
        c = g.uniform(1.0, 40.0, n)
        c[:40] = math.inf
        c[40:60] = math.nan
        c[60:60 + 25] = cls.GRID
        c[85:110] = np.nextafter(cls.GRID, 0.0)
        bound = c.copy()
        bound[110:400] = math.nan
        bound[400:700] = math.inf
        mixed = np.stack([c, bound], axis=1)
        low = np.stack([g.uniform(1.0, 10.0, n), np.full(n, math.inf)],
                       axis=1)
        c = g.uniform(1.0, 4.9, cls.REST)
        empty = np.stack([c, c], axis=1)
        return [mixed, low, empty]

    @pytest.mark.parametrize("scale", ["linear", "log"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_counts_of_every_row(self, monkeypatch, scale, workers):
        batches = self.batches()
        grid = self.GRID if scale == "linear" else list(np.log(self.GRID))
        # batch i draws from stream i: the scripted law hands it batch i
        monkeypatch.setattr(montecarlo, "stream_rng",
                            lambda seed, index: index)
        law = AdversarialLaw(Cap(e0(1), 0.5), 0.0)
        law.sample = lambda index, size=None: batches[index][:size]
        # condnum's cut: half the lowest threshold, 10 on the C scale
        cut = self.GRID[0] / 2.0
        evaluated = []

        def evaluate_batch(z):
            evaluated.append(len(z))
            return z[:, 0].copy()

        problem = ConicProblem("scripted", 1, 1, evaluate_batch, e0(1),
                               bound_batch=lambda z: z[:, 1])
        samples = sum(map(len, batches))
        rep = estimate_tail(ExperimentConfig(
            problem, law, samples, seed=0, t_grid=grid, scale=scale,
            workers=workers))
        rows = np.concatenate(batches)
        c = np.ascontiguousarray(rows[:, 0])
        with np.errstate(divide="ignore"):
            c = np.log(c) if scale == "log" else c
        assert [r.count for r in rep.rows] == [
            int(np.count_nonzero(c >= t)) for t in grid]
        assert rep.n_infinite == int(np.count_nonzero(c == math.inf)) == 40
        assert rep.n_evaluated == int(np.count_nonzero(
            ~(rows[:, 1] < cut))) == sum(evaluated)
        # the third batch reaches evaluate_batch with no row
        assert sorted(evaluated)[0] == 0


def _tabulated_matrix_law():
    # the law of the benchmark's mc-matrix-tabulated workload: matrix:3
    # (k = 9) at the pole, sigma = 0.5, beta = 4, profile 2 - r/sigma
    problem = matrix_problem(3)
    profile = normalize_profile(lambda r: 2.0 - r / 0.5, problem.n, 4.0,
                                0.5, grid_points=1025)
    return problem, AdversarialLaw(Cap(problem.ill_posed, 0.5), 4.0, profile)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestReportDigests:
    """Reports whose bytes a speed-up that keeps the arithmetic must
    keep: sha256 of the CSVs of a tabulated k = 9 law and of a k = 5
    uniform law off the axes, which pass through the segment lookup,
    the Clenshaw kernels, the sloped profile's rejection step, the
    gaussian directions, the geodesic map and the threshold counts."""

    SAMPLES = 20000

    TABULATED = {
        1: ("3f9f67aef1a7df12220f6052bf7790b0f3aaaca9006bd80356f20556d7ed2f9a",
            "6e18e865ca0066dfa7587d5653170b24c7da5a83c37a7a0c9cddfacdef12bcd2"),
        2: ("f99747d4d42f38ed33309b50ea94d8f23310502fb0086a0e82a238f519d112c3",
            "12cf847f4aa727932c222599f12dfc7cd4095a3e790e4f042fa42a5bd3271b5e"),
    }
    UNIFORM_K5 = {
        1: "a15a2733669d00f60b0b5aaf94f0902bc87ca56ee6a149fd9123bb35b67ce2a5",
        2: "967340334153d4b1a7b1481636954b23e6fb1fcb481db444bf3bccad116d2bab",
    }

    @pytest.mark.parametrize("seed", [1, 2])
    def test_tabulated_k9(self, seed):
        problem, law = _tabulated_matrix_law()
        tail = estimate_tail(ExperimentConfig(
            problem, law, self.SAMPLES, seed,
            t_grid=list(np.linspace(1.0, 9.0, 25)), scale="log"))
        expect = estimate_expectation(ExperimentConfig(
            problem, law, self.SAMPLES, seed))
        assert (_sha256(tail.to_csv()), _sha256(expect.to_csv())) \
            == self.TABULATED[seed]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_uniform_k5(self, seed):
        law = AdversarialLaw(
            Cap(normalize([0.9, -0.3, 0.0, 0.25, 0.2]), 0.5), 0.0)
        tail = estimate_tail(ExperimentConfig(
            hyperplane_problem(4), law, self.SAMPLES, seed,
            t_grid=list(np.linspace(1.05, 1.75, 12))))
        assert _sha256(tail.to_csv()) == self.UNIFORM_K5[seed]


class TestExactLaw:
    """The sampled law against an exact one.  At sigma = 1 the cap is all
    of P^3, so the uniform law on it is the law of a normalized 2x2
    Gaussian matrix, whatever the centre, and Edelman (1988) gives its
    tail exactly: P(C >= t) = 2 sqrt(t^2 - 1) / t^2 for t >= 1.  The
    centres take both forms of the direction map: the pole ill_posed =
    e_0, and diag(1, 1) / sqrt(2), whose reflector mixes coordinates."""

    T_GRID = [1.5, 2.0, 5.0, 20.0, 100.0]
    SAMPLES = 10 ** 6
    CENTRES = {"ill_posed": matrix_problem(2).ill_posed,
               "diag": normalize([1.0, 0.0, 0.0, 1.0])}

    def z_scores(self, centre, seed):
        law = AdversarialLaw(Cap(centre, 1.0), 0.0)
        report = estimate_tail(ExperimentConfig(
            matrix_problem(2), law, self.SAMPLES, seed, t_grid=self.T_GRID))
        n = self.SAMPLES
        z = []
        for row in report.rows:
            p = 2.0 * math.sqrt(row.t ** 2 - 1.0) / row.t ** 2
            z.append((row.count - n * p) / math.sqrt(n * p * (1.0 - p)))
        return np.array(z)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("centre", sorted(CENTRES))
    def test_edelman_tail(self, centre, seed):
        assert np.max(np.abs(self.z_scores(self.CENTRES[centre], seed))) \
            <= 4.0

    @pytest.mark.parametrize("centre", sorted(CENTRES))
    def test_control_wrong_sphere(self, monkeypatch, centre):
        # directions from k normalized raw gaussians, on the unit sphere
        # of R^k instead of that of the tangent space, and each point
        # normalized after: the same radius law on the wrong points
        from capsmooth import distributions

        def raw_direction(a, rng, size=None):
            u = rng.standard_normal((size, a.shape[0]))
            return u / np.linalg.norm(u, axis=1)[:, None]

        def point(a, u, r):
            z = np.sqrt(1.0 - r * r)[:, None] * a + r[:, None] * u
            return z / np.linalg.norm(z, axis=1)[:, None]

        monkeypatch.setattr(distributions, "tangent_direction", raw_direction)
        monkeypatch.setattr(distributions, "geodesic_point", point)
        assert np.max(np.abs(self.z_scores(self.CENTRES[centre], 1))) > 4.0
