"""Argument domains: every count and dimension, the cap radius sigma and
the pole exponent beta are checked by one rule each (capsmooth._args).

Each entry of the tables below names a public call and the argument
it varies.  NaN, the infinities, a fraction and a value below the
least raise ValueError naming that argument, never OverflowError and
never a truncation; an integral float and a numpy integer give the
result of the plain int.  A value that is no number (None, a list, a
string that does not parse) raises ValueError naming the argument in
the real-valued rules too, never TypeError, and so does an int too
large for a float, never OverflowError.
"""

import math
import re

import numpy as np
import pytest

from capsmooth import bounds, checks, condnum, montecarlo, volumes
from capsmooth._args import integer
from capsmooth.distributions import (AdversarialLaw, Cap, constant_profile,
                                     normalize_profile, uniform_law)
from capsmooth.geometry import tangent_direction

pytestmark = pytest.mark.filterwarnings("error")

E0 = np.eye(4)[0]
Z = np.random.default_rng(1).standard_normal((5, 9))


def _rng():
    return montecarlo.stream_rng(11, 0)


def _problem(p):
    return p.name, p.n, p.degree, p.evaluate_batch(Z[:, :p.n + 1]).tolist()


def _profile(p):
    return p.r_grid.tolist(), p.h_grid.tolist()


def _config(**kwargs):
    args = dict(problem=condnum.hyperplane_problem(3),
                law=uniform_law(Cap(E0, 0.5)), samples=10, seed=0)
    args.update(kwargs)
    cfg = montecarlo.ExperimentConfig(**args)
    return cfg.echo(), cfg.workers


def _grid(steps, **ends):
    cfg = montecarlo.ExperimentConfig(condnum.hyperplane_problem(3),
                                      uniform_law(Cap(E0, 0.5)), 10, 0)
    return montecarlo.threshold_grid(cfg, steps, **ends).tolist()


def _law():
    return AdversarialLaw(Cap(E0, 0.5), 1.5)


def _raw(r):
    return 2.0 - r


def _boost(n):
    rho = 0.5 * bounds.rho_eps(3, 1.5, 0.5, 2.0, 0.25)
    return bounds.boosting_check(n, 1.5, 0.5, 2.0, 0.25, rho)


# (id, call of the varied value, argument name, least, a good int)
INTEGERS = [
    ("t0-n", lambda v: bounds.t0(v, 1, 0.5), "n", 1, 3),
    ("t0-d", lambda v: bounds.t0(3, v, 0.5), "d", 1, 3),
    ("t0_log-n", lambda v: bounds.t0_log(v, 1, 0.5), "n", 1, 3),
    ("t0_log-d", lambda v: bounds.t0_log(3, v, 0.5), "d", 1, 3),
    ("uniform_tail_bound-n",
     lambda v: bounds.uniform_tail_bound(v, 1, 0.5, 1e3), "n", 1, 3),
    ("uniform_tail_bound-d",
     lambda v: bounds.uniform_tail_bound(3, v, 0.5, 1e3), "d", 1, 3),
    ("uniform_log_tail_bound-n",
     lambda v: bounds.uniform_log_tail_bound(v, 1, 0.5, 10.0), "n", 1, 3),
    ("uniform_log_tail_bound-d",
     lambda v: bounds.uniform_log_tail_bound(3, v, 0.5, 10.0), "d", 1, 3),
    ("uniform_expectation_bound-n",
     lambda v: bounds.uniform_expectation_bound(v, 1, 0.5), "n", 1, 3),
    ("uniform_expectation_bound-d",
     lambda v: bounds.uniform_expectation_bound(3, v, 0.5), "d", 1, 3),
    ("smoothness_alpha-n", lambda v: bounds.smoothness_alpha(v, 1.5), "n",
     1, 3),
    ("rho_eps-n", lambda v: bounds.rho_eps(v, 1.5, 0.5, 2.0, 0.25), "n",
     1, 3),
    ("delta_eps-n", lambda v: bounds.delta_eps(v, 1.5, 0.5, 2.0, 0.25), "n",
     1, 3),
    ("t_eps-n", lambda v: bounds.t_eps(v, 1, 0.5, 0.01), "n", 1, 3),
    ("t_eps-d", lambda v: bounds.t_eps(3, v, 0.5, 0.01), "d", 1, 3),
    ("boosted_tail_bound-n",
     lambda v: bounds.boosted_tail_bound(v, 1, 0.5, 1.5, 40.0), "n", 1, 3),
    ("boosted_tail_bound-d",
     lambda v: bounds.boosted_tail_bound(3, v, 0.5, 1.5, 40.0), "d", 1, 3),
    ("adversarial_expectation_bound-n",
     lambda v: bounds.adversarial_expectation_bound(v, 1, 0.5, 1.5, 2.0),
     "n", 1, 3),
    ("adversarial_expectation_bound-d",
     lambda v: bounds.adversarial_expectation_bound(3, v, 0.5, 1.5, 2.0),
     "d", 1, 3),
    ("proof_chain-n",
     lambda v: bounds.adversarial_expectation_bound_proof_chain(
         v, 1, 0.5, 1.5, 2.0), "n", 1, 3),
    ("proof_chain-d",
     lambda v: bounds.adversarial_expectation_bound_proof_chain(
         3, v, 0.5, 1.5, 2.0), "d", 1, 3),
    ("expectation_bound_gap-n",
     lambda v: bounds.expectation_bound_gap(v, 1, 0.5), "n", 1, 3),
    ("expectation_bound_gap-d",
     lambda v: bounds.expectation_bound_gap(3, v, 0.5), "d", 1, 3),
    ("boosting_check-n", _boost, "n", 1, 3),
    ("small_calc_check-n", bounds.small_calc_check, "n", 1, 3),
    ("delta_eps_sandwich-n",
     lambda v: bounds.delta_eps_sandwich(v, 1.5, 0.5, 2.0), "n", 1, 3),
    ("BoostParams-n",
     lambda v: bounds.BoostParams(v, 1.5, 0.5, 2.0, 0.25).rho(), "n", 1, 3),
    ("default_grid-n", lambda v: bounds.default_grid(n=v), "n", 1, 3),
    ("hyperplane_problem-n",
     lambda v: _problem(condnum.hyperplane_problem(v)), "n", 1, 3),
    ("matrix_problem-m", lambda v: _problem(condnum.matrix_problem(v)), "m",
     2, 3),
    ("sphere_volume-n", volumes.sphere_volume, "n", 0, 3),
    ("cap_measure-n", lambda v: volumes.cap_measure(v, 0.5), "n", 1, 3),
    ("cap_integral_series-m",
     lambda v: volumes.cap_integral_series(v, 1.0), "m", 1, 3),
    ("wilson_interval-successes",
     lambda v: montecarlo.wilson_interval(v, 10), "successes", 0, 3),
    ("wilson_interval-trials",
     lambda v: montecarlo.wilson_interval(0, v), "trials", 1, 3),
    ("ExperimentConfig-samples", lambda v: _config(samples=v), "samples",
     1, 3),
    ("ExperimentConfig-seed", lambda v: _config(seed=v), "seed", 0, 3),
    ("ExperimentConfig-workers", lambda v: _config(workers=v), "workers",
     1, 3),
    ("stream_rng-seed", lambda v: montecarlo.stream_rng(v, 0).random(),
     "seed", 0, 3),
    ("ks_radial_test-seed",
     lambda v: montecarlo.ks_radial_test(uniform_law(Cap(E0, 0.5)), 1000, v),
     "seed", 0, 3),
    ("threshold_grid-steps", _grid, "steps", 0, 3),
    ("small_calc_grid-n_max", lambda v: checks.small_calc_grid(v, 5),
     "n_max", 1, 3),
    ("small_calc_grid-points", lambda v: checks.small_calc_grid(100, v),
     "points", 1, 3),
    ("ks_radial_test-n_samples",
     lambda v: montecarlo.ks_radial_test(uniform_law(Cap(E0, 0.5)), v, 0),
     "n_samples", 1000, 1000),
    ("sample-size",
     lambda v: uniform_law(Cap(E0, 0.5)).sample(_rng(), size=v).tolist(),
     "size", 1, 3),
    ("tangent_direction-size",
     lambda v: tangent_direction(E0, _rng(), size=v).tolist(), "size", 1, 3),
    ("normalize_profile-n",
     lambda v: _profile(normalize_profile(_raw, v, 0.5, 0.5, 9)), "n", 1,
     3),
    ("normalize_profile-grid_points",
     lambda v: _profile(normalize_profile(_raw, 3, 0.5, 0.5, v)),
     "grid_points", 2, 3),
]


def _named(name):
    """The message of a rule that rejects argument `name` leads with
    it: "n must be ...", "m (the sigma = 1 ladder) must be ..."."""
    return "^" + re.escape(name) + r"\b"


@pytest.mark.parametrize("call, name, least, good",
                         [entry[1:] for entry in INTEGERS],
                         ids=[entry[0] for entry in INTEGERS])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "fraction", "below"])
def test_integer_rejects(call, name, least, good, bad):
    value = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
             "fraction": good + 0.5, "below": least - 1}[bad]
    with pytest.raises(ValueError, match=_named(name)):
        call(value)


@pytest.mark.parametrize("call, name, least, good",
                         [entry[1:] for entry in INTEGERS],
                         ids=[entry[0] for entry in INTEGERS])
def test_integer_accepts(call, name, least, good):
    want = call(good)
    assert call(float(good)) == want
    assert call(np.int64(good)) == want


def test_seed_below_two_to_the_64():
    # one rule for every seed: the config's, and the stream's that every
    # draw passes through
    assert _config(seed=2 ** 64 - 1)[0]["seed"] == 2 ** 64 - 1
    montecarlo.stream_rng(2 ** 64 - 1, 0)
    law = uniform_law(Cap(E0, 0.5))
    for call in (lambda seed: _config(seed=seed),
                 lambda seed: montecarlo.stream_rng(seed, 0),
                 lambda seed: montecarlo.ks_radial_test(law, 1000, seed)):
        for seed in (2 ** 64, 2.0 ** 64):
            with pytest.raises(ValueError, match="^seed"):
                call(seed)


def test_empty_threshold_grid():
    # zero steps is a count, but no grid
    with pytest.raises(ValueError, match="^t_grid must not be empty$"):
        _grid(0)


def test_successes_at_most_trials():
    assert montecarlo.wilson_interval(10, 10)[1] == 1.0
    with pytest.raises(ValueError, match="^successes"):
        montecarlo.wilson_interval(11, 10)


def test_integer_returns_int():
    for value in (3, 3.0, np.int64(3), np.float64(3.0)):
        out = integer(value, "n")
        assert out == 3 and type(out) is int
    # a string is not a number, even one that parses
    with pytest.raises(ValueError, match="^n"):
        integer("3", "n")
    with pytest.raises(ValueError, match=r"^k must be an integer in \[0, 5\)"):
        integer(5, "k", least=0, below=5)


@pytest.mark.parametrize("value", [None, [3], {"n": 3}],
                         ids=["none", "list", "dict"])
def test_integer_rejects_what_is_no_number(value):
    # int() raises TypeError on these; the rule names the argument all
    # the same, here and for the size of a draw
    for call, name in ((lambda v: integer(v, "n"), "n"),
                       (lambda v: uniform_law(Cap(E0, 0.5)).sample(_rng(), v),
                        "size"),
                       (lambda v: tangent_direction(E0, _rng(), v), "size")):
        with pytest.raises(ValueError, match=re.escape(
                "%s must be an integer in [1, inf), got %r" % (name, value))):
            call(value)


# (id, call of the varied value, argument name): sigma in (0, 1], beta
# in [0, n) at n = 3
SIGMAS = [
    ("Cap", lambda v: Cap(E0, v).sigma),
    ("normalize_profile",
     lambda v: _profile(normalize_profile(_raw, 3, 0.5, v, 9))),
    ("t0", lambda v: bounds.t0(3, 1, v)),
    ("rho_eps", lambda v: bounds.rho_eps(3, 1.5, v, 2.0, 0.25)),
    ("boosting_check",
     lambda v: bounds.boosting_check(3, 1.5, v, 2.0, 0.25, 1e-6)),
    ("default_grid", lambda v: bounds.default_grid(n=3, sigma=v)),
]
BETAS = [
    ("AdversarialLaw",
     lambda v: AdversarialLaw(Cap(E0, 0.5), v).radial_cdf(0.25)),
    ("normalize_profile",
     lambda v: _profile(normalize_profile(_raw, 3, v, 0.5, 9))),
    ("smoothness_alpha", lambda v: bounds.smoothness_alpha(3, v)),
    ("boosted_tail_bound",
     lambda v: bounds.boosted_tail_bound(3, 1, 0.5, v, 40.0)),
    ("default_grid", lambda v: bounds.default_grid(n=3, beta=v)),
]


@pytest.mark.parametrize("call", [c for _, c in SIGMAS],
                         ids=[i for i, _ in SIGMAS])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, 1.5],
                         ids=["nan", "inf", "-inf", "zero", "above"])
def test_sigma_rejects(call, bad):
    with pytest.raises(ValueError, match=r"^sigma must lie in \(0, 1\]"):
        call(bad)


@pytest.mark.parametrize("call", [c for _, c in SIGMAS],
                         ids=[i for i, _ in SIGMAS])
def test_sigma_accepts(call):
    assert call(np.float64(0.5)) == call(0.5)
    assert call(1) == call(1.0)


@pytest.mark.parametrize("call", [c for _, c in BETAS],
                         ids=[i for i, _ in BETAS])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5, 3.0],
                         ids=["nan", "inf", "-inf", "below", "n"])
def test_beta_rejects(call, bad):
    with pytest.raises(ValueError, match=r"^beta must lie in \[0, n\)"):
        call(bad)


@pytest.mark.parametrize("call", [c for _, c in BETAS],
                         ids=[i for i, _ in BETAS])
def test_beta_accepts(call):
    assert call(np.float64(1.5)) == call(1.5)
    assert call(1) == call(1.0)


# (id, call of the varied value, argument name): the other real-valued
# rules, volumes' m and sigma, the H, eps and delta_e of bounds, and
# each threshold, radius, tolerance and shell end
REALS = [
    ("log_cap_integral-m", lambda v: volumes.log_cap_integral(v, 0.5), "m"),
    ("log_cap_integral-sigma", lambda v: volumes.log_cap_integral(3, v),
     "sigma"),
    ("cap_integral_mpmath-m", lambda v: volumes.cap_integral_mpmath(v, 0.5),
     "m"),
    ("cap_integral_series-m", lambda v: volumes.cap_integral_series(v, 0.5),
     "m"),
    ("cap_integral_bounds-sigma",
     lambda v: volumes.cap_integral_bounds(3, v), "sigma"),
    ("rho_eps-H", lambda v: bounds.rho_eps(3, 0, 0.5, v, 0.5), "H"),
    ("rho_eps-eps", lambda v: bounds.rho_eps(3, 0, 0.5, 2.0, v), "eps"),
    ("t_eps-delta_e", lambda v: bounds.t_eps(3, 1, 0.5, v), "delta_e"),
    ("constant_profile-sigma", lambda v: constant_profile(v).sigma, "sigma"),
    ("uniform_tail_bound-t",
     lambda v: bounds.uniform_tail_bound(3, 1, 0.5, v), "t"),
    ("uniform_log_tail_bound-t",
     lambda v: bounds.uniform_log_tail_bound(3, 1, 0.5, v), "t"),
    ("boosted_tail_bound-t",
     lambda v: bounds.boosted_tail_bound(3, 1, 0.5, 1.5, v), "t"),
    ("smoothness_ratio-rho", lambda v: bounds.smoothness_ratio(_law(), v),
     "rho"),
    ("boosting_check-rho",
     lambda v: bounds.boosting_check(3, 1.0, 0.5, 1.0, 0.5, v), "rho"),
    ("log_radial_cdf-rho", lambda v: _law().log_radial_cdf(v), "rho"),
    ("smoothness_check-tol",
     lambda v: bounds.smoothness_check(_law(), 0.1, v), "tol"),
    ("ball_maximizer_check-shells",
     lambda v: bounds.ball_maximizer_check(_law(), [(v, 0.1)]), "shells"),
    ("ExperimentConfig-t_grid", lambda v: _config(t_grid=[v]), "t_grid"),
    ("threshold_grid-t_min", lambda v: _grid(3, t_min=v), "t_min"),
    ("threshold_grid-t_max", lambda v: _grid(3, t_max=v), "t_max"),
]


NO_NUMBERS = {"none": None, "list": [0.5], "string": "abc",
              "huge": 10 ** 400}
# the calls that read None as their default (default_grid's axis, an
# end of threshold_grid), so take it
NONE_IS_DEFAULT = {"default_grid", "threshold_grid-t_min",
                   "threshold_grid-t_max"}
# every rule of the tables above and REALS with each value that is no
# number
NO_NUMBER_CASES = [
    ("%s-%s-%s" % (name, i, kind), call, name, value)
    for table, name in ((SIGMAS, "sigma"), (BETAS, "beta"))
    for i, call in table
    for kind, value in NO_NUMBERS.items()
    if not (value is None and i in NONE_IS_DEFAULT)
] + [("%s-%s" % (i, kind), call, name, value)
     for i, call, name in REALS for kind, value in NO_NUMBERS.items()
     if not (value is None and i in NONE_IS_DEFAULT)]


@pytest.mark.parametrize("call, name, value",
                         [case[1:] for case in NO_NUMBER_CASES],
                         ids=[case[0] for case in NO_NUMBER_CASES])
def test_real_rejects_what_is_no_number(call, name, value):
    # float() raises TypeError on None and a list, a ValueError that
    # names no argument on the string and OverflowError on the huge int;
    # each rule names its argument
    with pytest.raises(ValueError, match=re.escape(
            "%s must be a real number, got %r" % (name, value))):
        call(value)
