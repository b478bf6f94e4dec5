"""Derivative-free stochastic optimization via finite differences.

Optimize noisy black-box objectives with Kiefer-Wolfowitz, SPSA, or batch
Cor-CFD gradient descent, and reproduce comparative benchmarks (gap RMSEs,
boundary-oscillation statistics) over seeded replications.
"""

from .estimators import (CfdConfig, CorCfdConfig, GradientEstimate, cfd_batch,
                         cfd_pair, cor_cfd_coordinate, cor_cfd_gradient, optimal_c)
from .harness import (ALGORITHMS, ExperimentConfig, GridSpec, ReplicationResult,
                      grid_search_spsa, load_config, replication_seed,
                      run_replications, run_trajectory)
from .metrics import (optimality_gap, oscillation_settle_index,
                      oscillatory_period, percentiles, rmse, solution_gap)
from .optimizers import (ArmijoParams, ConfigurationError, GainSchedule,
                         Trajectory, armijo_search, batch_schedule,
                         cor_cfd_gd_run, kw_run, spsa_run)
from .oracle import (BoxDomain, NoisyOracle, TestFunction, fn213_mean,
                     get_test_function)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS", "ArmijoParams", "BoxDomain", "CfdConfig",
    "ConfigurationError", "CorCfdConfig", "ExperimentConfig", "GainSchedule",
    "GradientEstimate", "GridSpec", "NoisyOracle", "ReplicationResult",
    "TestFunction", "Trajectory", "armijo_search", "batch_schedule",
    "cfd_batch", "cfd_pair", "cor_cfd_coordinate", "cor_cfd_gd_run",
    "cor_cfd_gradient", "fn213_mean", "get_test_function", "grid_search_spsa",
    "kw_run", "load_config", "optimal_c", "optimality_gap",
    "oscillation_settle_index", "oscillatory_period", "percentiles",
    "replication_seed", "rmse", "run_replications", "run_trajectory",
    "solution_gap", "spsa_run",
]
