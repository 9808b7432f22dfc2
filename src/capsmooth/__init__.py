"""Smoothed and adversarial perturbation analysis on projective caps.

Samplers for uniform and pole-at-center laws on caps of real projective
space, conic condition-number instances, closed-form cap-volume
integrals, the tail and expectation bounds they satisfy, and Monte
Carlo machinery to test every displayed inequality.
"""

from .geometry import (geodesic_point, normalize, proj_distance,
                       tangent_direction)
from .volumes import (cap_integral, cap_integral_bounds, cap_integral_series,
                      cap_measure, log_cap_integral, sphere_volume)
from .distributions import (AdversarialLaw, Cap, RadialProfile,
                            constant_profile, normalize_profile, uniform_law)
from .condnum import (ConicProblem, hyperplane_problem, matrix_problem,
                      union_hyperplanes_problem)
from .bounds import (BoostParams, CheckRow, adversarial_expectation_bound,
                     adversarial_expectation_bound_proof_chain,
                     ball_maximizer_check, boosted_tail_bound,
                     boosting_check, default_grid, delta_eps,
                     delta_eps_sandwich, expectation_bound_gap,
                     expectation_theorem, rho_eps, small_calc_check,
                     smoothness_alpha, smoothness_check, smoothness_ratio,
                     t0, t0_log, t_eps, t_eps_exceeds_t0, tail_theorem,
                     uniform_covers, uniform_expectation_bound,
                     uniform_log_tail_bound, uniform_tail_bound)
from .montecarlo import (ExperimentConfig, ExpectationReport, TailReport,
                         TailRow, estimate_expectation, estimate_tail,
                         ks_radial_test, wilson_interval)

__version__ = "0.1.0"

__all__ = [
    "normalize", "proj_distance", "tangent_direction", "geodesic_point",
    "sphere_volume", "cap_integral", "log_cap_integral",
    "cap_integral_series", "cap_integral_bounds", "cap_measure",
    "Cap", "RadialProfile", "constant_profile", "normalize_profile",
    "AdversarialLaw", "uniform_law",
    "ConicProblem", "hyperplane_problem",
    "union_hyperplanes_problem", "matrix_problem",
    "t0", "t0_log", "uniform_tail_bound", "uniform_log_tail_bound",
    "uniform_expectation_bound", "smoothness_alpha", "smoothness_ratio",
    "rho_eps", "delta_eps", "t_eps", "boosted_tail_bound", "uniform_covers",
    "tail_theorem", "expectation_theorem", "adversarial_expectation_bound",
    "adversarial_expectation_bound_proof_chain", "expectation_bound_gap",
    "CheckRow", "boosting_check", "small_calc_check", "smoothness_check",
    "ball_maximizer_check",
    "BoostParams", "delta_eps_sandwich", "t_eps_exceeds_t0",
    "default_grid",
    "ExperimentConfig", "TailRow", "TailReport", "ExpectationReport",
    "estimate_tail", "estimate_expectation", "ks_radial_test",
    "wilson_interval",
]
