"""The public names of ``adaptnet``, submodules aside, pinned exactly."""

import types

import adaptnet

PUBLIC = {
    # errors
    "AccuracyError", "AdaptNetError", "ConfigError", "ConnectivityError",
    "ContractError", "DivergenceError", "ModelError", "NumericalError",
    "ObservabilityError", "StabilityError", "StructureError",
    # model
    "AssumptionConstants", "LinearModel", "assumption_constants",
    "check_network_observability", "limit_point", "network_hessian",
    "noise_profile",
    # numerics
    "lyapunov_quadrature_oracle", "matrix_exponential",
    "solve_lyapunov_continuous", "spectral_radius",
    # policy
    "CombinationPolicy", "PerronData", "assemble", "build_hastings",
    "build_metropolis", "build_perron", "build_uniform_averaging",
    "is_primitive", "perron_vector", "policy_to_json",
    "second_eigenvalue_magnitude",
    # sim
    "LearningCurves", "SimConfig", "decomposition_diagnostics",
    "export_csv", "fit_geometric_rate", "run", "run_summary",
    # strategy
    "reference_error_curve", "step_centralized", "step_distributed",
    "step_reference",
    # theory
    "OptimalWeights", "TheoryReport", "build_report", "convergence_rate",
    "optimal_theta", "optimal_theta_for_model", "predict_msd_identity",
    "predict_weighted_mse", "report_to_json", "stable_step_bound",
    # topology
    "Topology", "from_edges", "is_connected", "random_geometric", "ring",
}


def test_public_names_are_pinned():
    names = {name for name, value in vars(adaptnet).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC
    assert len(PUBLIC) == 59
