"""Numerical laboratory for the mean-field Blume-Capel model.

Exact phase diagram and thermodynamic magnetization, exact finite-size spin
laws, and desk-scale verification of the scaling laws along parameter
sequences approaching second-order and tricritical points, including the
threshold speed separating the regime where the thermodynamic magnetization
faithfully estimates the finite-size magnetization from the regime where it
does not.
"""

from .model import (ModelParams, cumulant, cumulant_deriv, free_energy,
                    free_energy_deriv)
from .minimize import ScaledFreeEnergy, magnetization
from .phase import (BETA_C, CriticalConstants, PhaseRegion, classify,
                    critical_constants, first_order_k, second_order_k,
                    second_order_k_deriv, verify_tricritical_conjectures)
from .finite_size import (N_MAX, EnumerationLimitError, McEstimate,
                          SpinLawExact, abs_moment, finite_size_law, hs_lhs,
                          hs_rhs, mc_estimate)
from .quadrature import QuadratureError, aitken_limit
from .sequences import (EvenPolynomial, MinimumSet, Regime, ScalingExponents,
                        SequenceSpec, SpecValidationError,
                        UnsupportedSequenceError, XbarResult, c4_coefficient,
                        check_hypothesis_iiia, check_hypothesis_v,
                        coexistence_onset, g_tilde, gl_polynomial,
                        limit_constant, params_at, scaled_free_energy_table,
                        spec_from_json, spec_to_json, validate,
                        weak_limit_polynomial, xbar)
from .harness import (AsymptoticsReport, Estimator, KappaFitReport, MdpReport,
                      ReportConstants, ReportRow, estimator_comparison,
                      kappa_fluctuation_estimate, mdp_rate_estimate,
                      run_finite_size_asymptotics, run_thermo_asymptotics,
                      weak_limit_distance)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
