"""Information freshness toolkit.

Quantifies how much information delivered samples of a Markov source still
carry as they age, solves for the optimal sampling threshold policy in
front of a FIFO single-server queue, and compares policies by exact
renewal-reward analysis and seeded Monte-Carlo simulation.
"""

from .analytic import (
    BudgetExceeded,
    OracleResult,
    brute_force_optimum,
    random_instances,
    zero_wait_average,
)
from .config import ConfigError, ExperimentConfig
from .service import ServiceTimeDist
from .simulator import (
    PolicySpec,
    RunSummary,
    SequenceExhausted,
    SimulationTrace,
    Threshold,
    Uniform,
    ZeroWait,
    age_histogram,
    average_over_seeds,
    replay,
    simulate,
)
from .solver import (
    CycleStats,
    SolverResult,
    ThresholdUnreachable,
    WaitingFunction,
    cycle_stats,
    solve_beta,
    solve_mi,
    zero_waiting,
)
from .sources import (
    Affine,
    AgePenalty,
    BinarySymmetric,
    GaussianAR1,
    MarkovSourceModel,
    NegatedMI,
    PenaltyTable,
    Tabulated,
    metric_table,
    mutual_information,
    penalty_value,
)

__version__ = "0.1.0"

__all__ = [
    "Affine",
    "AgePenalty",
    "BinarySymmetric",
    "BudgetExceeded",
    "ConfigError",
    "CycleStats",
    "ExperimentConfig",
    "GaussianAR1",
    "MarkovSourceModel",
    "NegatedMI",
    "OracleResult",
    "PenaltyTable",
    "PolicySpec",
    "RunSummary",
    "SequenceExhausted",
    "ServiceTimeDist",
    "SimulationTrace",
    "SolverResult",
    "Tabulated",
    "Threshold",
    "ThresholdUnreachable",
    "Uniform",
    "WaitingFunction",
    "ZeroWait",
    "age_histogram",
    "average_over_seeds",
    "brute_force_optimum",
    "cycle_stats",
    "metric_table",
    "mutual_information",
    "penalty_value",
    "random_instances",
    "replay",
    "simulate",
    "solve_beta",
    "solve_mi",
    "zero_wait_average",
    "zero_waiting",
]
