"""Household fertility models with spousal transfer bargaining.

Three related models of a couple's fertility choice: a pooled-budget
household that maximizes joint utility, a leader-follower game where the
husband buys fertility through a per-child transfer, and an extension where
he also pays an explicit rearing cost, which turns his first-order condition
into a cubic. Closed forms are certified against independent brute-force
oracles, comparative statics against finite differences.

The names of :mod:`fertgames.population`, the seeded population sampler,
and of :mod:`fertgames.oracle`, the brute-force certifiers, load their
module on first access (PEP 562), so that a process which only solves
never loads numpy or the oracles. Every other public name loads with the
package.
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
from .statics import RegimeClassification, StaticsReport, build_report, fd_check

__version__ = "0.1.0"

# The lazily loaded names, by defining module.
_LAZY = {
    "oracle": ("maximize_1d", "oracle_benchmark", "oracle_extended", "oracle_game"),
    "population": ("AggregateReport", "LogNormalSpec", "PopulationSpec", "aggregate",
                   "sample_households"),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted(
    [name for name, value in globals().items()
     if getattr(value, "__module__", "").startswith(__name__ + ".")]
    + list(_MODULE_OF))


def __getattr__(name: str):
    """Import the module that defines the lazily loaded ``name`` and keep
    the value in the package namespace, where later lookups find it."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
