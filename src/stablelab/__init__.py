"""stablelab: desk-scale numerics for symmetric alpha-stable processes
with singular drifts -- sampling, spectral operator calculus, drift-class
estimation, perturbed resolvents, weighted estimates, semigroup evolution
and Monte Carlo identification of the driving noise."""

from ._blas import pin_one_thread
from .config import ExperimentConfig, load_config, parse_config
from .drifts import (DriftSpec, MollifiedDrift, bounded_smooth_drift,
                     hardy_constant, hardy_drift, kato_example_drift,
                     lp_radial_drift, mollifier, mollify)
from .errors import (AdmissibilityError, CapacityError, ConfigurationError,
                     ConvergenceError, DivergenceError, ParameterError,
                     QuadratureError, StableLabError)
from .evolution import (ArnoldiPropagator, PropagatorConfig,
                        conservativeness_check, duhamel_residual,
                        feller_convergence_check, propagate)
from .formbound import (FormBoundEstimate, admissible_delta_threshold,
                        estimate_formbound, estimate_kato_norm,
                        estimate_weak_formbound, estimate_weak_formbound_ladder)
from .grid import Field, TorusGrid
from .kernels import (ball_mass, estimate_gradient_constant,
                      heat_kernel_peak, heat_kernel_radial_derivative,
                      heat_kernel_value, kernel_profile, stable_marginal_cdf)
from .operators import (balakrishnan_resolvent_power, frac_laplacian,
                        gradient_component, heat_semigroup, resolvent_power)
from .report import VerificationReport
from .resolvent import (ResolventAssembly, assemble_l2_resolvent,
                        assemble_lp_resolvent, drifted_generator,
                        verify_lp_inequalities)
from .sampler import (IncrementBatch, StableParams, empirical_char_function,
                      sample_increments, sample_subordinator)
from .sde import (CharFnProbe, PathEnsemble, contraction_probe,
                  identify_driving_noise, integrate, mc_vs_semigroup)
from .weighted import (WeightSpec, verify_eta_b_integrability,
                       verify_weighted_estimates, verify_weighted_markov)

__all__ = [
    "AdmissibilityError", "ArnoldiPropagator", "CapacityError", "CharFnProbe",
    "ConfigurationError", "ConvergenceError", "DivergenceError", "DriftSpec",
    "ExperimentConfig", "Field", "FormBoundEstimate", "IncrementBatch",
    "MollifiedDrift", "ParameterError", "PathEnsemble", "PropagatorConfig",
    "QuadratureError", "ResolventAssembly", "StableLabError", "StableParams",
    "TorusGrid", "VerificationReport", "WeightSpec",
    "admissible_delta_threshold", "assemble_l2_resolvent",
    "assemble_lp_resolvent", "balakrishnan_resolvent_power", "ball_mass",
    "bounded_smooth_drift", "conservativeness_check", "contraction_probe",
    "drifted_generator", "duhamel_residual", "empirical_char_function",
    "estimate_formbound", "estimate_gradient_constant", "estimate_kato_norm",
    "estimate_weak_formbound", "estimate_weak_formbound_ladder",
    "feller_convergence_check", "frac_laplacian", "gradient_component",
    "hardy_constant", "hardy_drift", "heat_kernel_peak",
    "heat_kernel_radial_derivative", "heat_kernel_value", "heat_semigroup",
    "identify_driving_noise", "integrate", "kato_example_drift",
    "kernel_profile", "load_config", "lp_radial_drift", "mc_vs_semigroup",
    "mollifier", "mollify", "parse_config", "propagate", "resolvent_power",
    "sample_increments", "sample_subordinator", "stable_marginal_cdf",
    "verify_eta_b_integrability", "verify_lp_inequalities",
    "verify_weighted_estimates", "verify_weighted_markov",
]

__version__ = "0.1.0"
pin_one_thread()  # last: the imports above have mapped every OpenBLAS
