"""Hub-to-hub truck platooning: coordination games, solvers, simulation."""

from .errors import (FormatError, InputError, ModelInconsistencyError,
                     NonConvergenceError, SupportTooLargeError)
from .network import (UNREACHABLE, DelayProfile, Edge, Hub, RoadNetwork,
                      load_network, replace_profiles, save_network,
                      shortest_path, shortest_path_km, validate_network)
from .game import (CoordinationGame, RewardModel, Scenario, VehicleSpec,
                   WaitingCostModel, load_fleet, round_half_away, save_fleet)
from .solver import (DeterministicOracle, SolveReport, best_response,
                     enumerate_actions, nash_seek, solve_deterministic,
                     spaces_for_fleet, verify_ne)
from .stochastic import (ExpectedUtilityOracle, SampledUtilityOracle,
                         ScenarioDistribution, degenerate_distribution,
                         enumerate_support, load_distribution,
                         sample_scenario, save_distribution,
                         stochastic_oracle, uniform_profile_distribution)
from .feedback import (POLICY_KINDS, PolicySpec, SimulationTrace,
                       conditional_distribution, detect_decision_instance,
                       run_closed_loop)
from .experiments import (ExperimentConfig, ExperimentResult, MetricsReport,
                          compute_metrics, generate_delay_profiles,
                          load_config, prepare_network, run_experiment,
                          sample_fleet, sweep)

__version__ = "0.1.0"

__all__ = [
    "FormatError", "InputError", "ModelInconsistencyError",
    "NonConvergenceError", "SupportTooLargeError",
    "UNREACHABLE", "DelayProfile", "Edge", "Hub", "RoadNetwork",
    "load_network", "replace_profiles", "save_network", "shortest_path",
    "shortest_path_km", "validate_network",
    "CoordinationGame", "RewardModel", "Scenario", "VehicleSpec",
    "WaitingCostModel", "load_fleet", "round_half_away", "save_fleet",
    "DeterministicOracle", "SolveReport", "best_response",
    "enumerate_actions", "nash_seek", "solve_deterministic",
    "spaces_for_fleet", "verify_ne",
    "ExpectedUtilityOracle", "SampledUtilityOracle", "ScenarioDistribution",
    "degenerate_distribution", "enumerate_support", "load_distribution",
    "sample_scenario", "save_distribution", "stochastic_oracle",
    "uniform_profile_distribution",
    "POLICY_KINDS", "PolicySpec", "SimulationTrace",
    "conditional_distribution", "detect_decision_instance", "run_closed_loop",
    "ExperimentConfig", "ExperimentResult", "MetricsReport",
    "compute_metrics", "generate_delay_profiles", "load_config",
    "prepare_network", "run_experiment", "sample_fleet", "sweep",
    "__version__",
]
