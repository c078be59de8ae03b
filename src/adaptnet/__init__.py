"""Multi-agent adaptation over graphs: simulation and closed-form analysis.

The package simulates the consensus/diffusion family of distributed
stochastic-gradient strategies on streaming least-mean-squares problems
and predicts, per agent, the steady-state mean-square deviation, the
convergence rate, and the safe step-size range in closed form.
"""

from .errors import (AccuracyError, AdaptNetError, ConfigError,
                     ConnectivityError, ContractError, DivergenceError,
                     ModelError, NumericalError, ObservabilityError,
                     StabilityError, StructureError)
from .model import (AssumptionConstants, LinearModel, assumption_constants,
                    check_network_observability, limit_point, network_hessian,
                    noise_profile)
from .numerics import (lyapunov_quadrature_oracle, matrix_exponential,
                       solve_lyapunov_continuous, spectral_radius)
from .policy import (CombinationPolicy, PerronData, assemble, build_hastings,
                     build_metropolis, build_perron, build_uniform_averaging,
                     is_primitive, perron_vector, policy_to_json,
                     second_eigenvalue_magnitude)
from .sim import (LearningCurves, SimConfig, decomposition_diagnostics,
                  export_csv, fit_geometric_rate, run, run_summary)
from .strategy import (reference_error_curve, step_centralized,
                       step_distributed, step_reference)
from .theory import (OptimalWeights, TheoryReport, build_report,
                     convergence_rate, optimal_theta, optimal_theta_for_model,
                     predict_msd_identity, predict_weighted_mse,
                     report_to_json, stable_step_bound)
from .topology import Topology, from_edges, is_connected, random_geometric, ring

__version__ = "0.1.0"
