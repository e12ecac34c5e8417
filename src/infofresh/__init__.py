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
)
from .config import ConfigError, ExperimentConfig
from .service import ServiceTimeDist
from .simulator import (
    PolicySpec,
    SequenceExhausted,
    Uniform,
    age_histogram,
    average_over_seeds,
    trace_chunks,
    write_trace,
)
from .solver import (
    CycleStats,
    SolverResult,
    WaitingFunction,
    cycle_stats,
    solve_beta,
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
    "SequenceExhausted",
    "ServiceTimeDist",
    "SolverResult",
    "Tabulated",
    "Uniform",
    "WaitingFunction",
    "age_histogram",
    "average_over_seeds",
    "brute_force_optimum",
    "cycle_stats",
    "metric_table",
    "random_instances",
    "solve_beta",
    "trace_chunks",
    "write_trace",
    "zero_waiting",
]
