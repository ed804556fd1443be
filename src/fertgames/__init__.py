"""Household fertility models with spousal transfer bargaining.

Three related models of a couple's fertility choice: a pooled-budget
household that maximizes joint utility, a leader-follower game where the
husband buys fertility through a per-child transfer, and an extension where
he also pays an explicit rearing cost, which turns his first-order condition
into a cubic. Closed forms are certified against independent brute-force
oracles, comparative statics against finite differences.
"""

from .core import (
    BenchmarkSolution,
    ModelParams,
    benchmark_solve,
    utility_linear_pair,
    utility_log_pair,
    validate_params,
)
from .errors import (
    BoundaryStatics,
    DomainError,
    HouseholdSolveFailure,
    InvalidDistribution,
    MissingKey,
    ModelError,
    NonFiniteObjective,
    NonPositiveParameter,
    NonPositiveTransfer,
    NumericalFailure,
    ParseError,
    PreferenceOrderViolated,
    ScenarioError,
    UnknownKey,
)
from .extended import ExtendedEquilibrium, real_roots, solve_extended
from .game import (
    GameEquilibrium,
    ReactionDecomposition,
    equilibrium_transfer,
    fertility_threshold,
    solve_game,
    wife_reaction,
)
from .oracle import maximize_1d, oracle_benchmark, oracle_extended, oracle_game
from .population import (
    AggregateReport,
    LogNormalSpec,
    PopulationSpec,
    aggregate,
    sample_households,
)
from .statics import RegimeClassification, StaticsReport, build_report, fd_check

__version__ = "0.1.0"

__all__ = [
    "AggregateReport",
    "BenchmarkSolution",
    "BoundaryStatics",
    "DomainError",
    "ExtendedEquilibrium",
    "GameEquilibrium",
    "HouseholdSolveFailure",
    "InvalidDistribution",
    "LogNormalSpec",
    "MissingKey",
    "ModelError",
    "ModelParams",
    "NonFiniteObjective",
    "NonPositiveParameter",
    "NonPositiveTransfer",
    "NumericalFailure",
    "ParseError",
    "PopulationSpec",
    "PreferenceOrderViolated",
    "ReactionDecomposition",
    "RegimeClassification",
    "ScenarioError",
    "StaticsReport",
    "UnknownKey",
    "aggregate",
    "benchmark_solve",
    "build_report",
    "equilibrium_transfer",
    "fd_check",
    "fertility_threshold",
    "maximize_1d",
    "oracle_benchmark",
    "oracle_extended",
    "oracle_game",
    "real_roots",
    "sample_households",
    "solve_extended",
    "solve_game",
    "utility_linear_pair",
    "utility_log_pair",
    "validate_params",
    "wife_reaction",
]
