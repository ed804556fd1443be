"""Heterogeneous-population aggregation with a childbirth-subsidy lever.

Households draw incomes from log-normal distributions and preferences from
fixed values or uniform ranges, each household seeded independently from
(seed, index) so parallel and serial generation agree bit for bit. Every
household is solved under the configured model; a positive subsidy is
solvable under the transfer game, where it turns the husband's first-order
condition into the leader cubic of :mod:`fertgames.extended`. The subsidy is
funded from general revenue: it raises the wife's effective per-child
receipt without touching either spouse's budget.

Aggregates focus on the relative-income story: fertility by wife-to-husband
income-ratio decile falls as the ratio rises, and the childless share tracks
how much of the population sits past the fertility threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import ModelParams, benchmark_solve, validate_params
from .errors import HouseholdSolveFailure, InvalidDistribution, ModelError
from .extended import REGIMES, solve_extended
from .game import solve_game

if TYPE_CHECKING:
    import numpy as np

MODELS = ("benchmark", "game", "extended")

# A preference entry is either a fixed value or a (lo, hi) uniform range.
PreferenceDist = float | tuple[float, float]


@dataclass(frozen=True)
class LogNormalSpec:
    """Log-normal income distribution: exp of Normal(mu, sigma)."""

    mu: float
    sigma: float


@dataclass(frozen=True)
class PopulationSpec:
    count: int
    seed: int
    aw_dist: LogNormalSpec
    am_dist: LogNormalSpec
    alpha: PreferenceDist
    delta: PreferenceDist
    gamma: PreferenceDist
    beta: PreferenceDist
    model: str = "game"
    regime: str = "high"
    subsidy: float = 0.0


@dataclass(frozen=True)
class AggregateReport:
    """Population-level fertility statistics.

    ``mean_transfer`` averages the equilibrium transfer over interior
    households only and is None when no household has children (or the model
    has no transfer). Decile buckets are equal-count by income ratio, lowest
    ratio first; empty buckets carry NaN means.
    """

    mean_fertility: float
    childless_share: float
    mean_transfer: float | None
    mean_income_ratio: float
    fertility_by_ratio_decile: tuple[float, ...]
    decile_counts: tuple[int, ...]
    notes: tuple[str, ...]


def _check_dist(name: str, dist: PreferenceDist) -> None:
    if isinstance(dist, tuple):
        if len(dist) != 2:
            raise InvalidDistribution(f"{name}: range must be (lo, hi), got {dist!r}")
        lo, hi = dist
        if not (math.isfinite(lo) and math.isfinite(hi) and 0 < lo <= hi):
            raise InvalidDistribution(f"{name}: need 0 < lo <= hi, got {dist!r}")
    elif isinstance(dist, (int, float)):
        if not (math.isfinite(dist) and dist > 0):
            raise InvalidDistribution(f"{name}: fixed value must be > 0, got {dist!r}")
    else:
        raise InvalidDistribution(f"{name}: unsupported distribution {dist!r}")


def check_subsidy(model: str, subsidy: float) -> None:
    """Reject a negative or non-finite subsidy, or one under a model other
    than the transfer game, which is the only one that takes a subsidy."""
    if not (math.isfinite(subsidy) and subsidy >= 0):
        raise InvalidDistribution(f"subsidy must be >= 0, got {subsidy!r}")
    if subsidy > 0 and model != "game":
        raise InvalidDistribution(
            "subsidies are only solvable under the transfer game"
        )


def validate_spec(spec: PopulationSpec) -> PopulationSpec:
    if not (isinstance(spec.count, int) and spec.count >= 1):
        raise InvalidDistribution(f"count must be an integer >= 1, got {spec.count!r}")
    if not (isinstance(spec.seed, int) and 0 <= spec.seed < 2**64):
        raise InvalidDistribution(f"seed must fit in 64 bits, got {spec.seed!r}")
    for name, dist in (("aw_dist", spec.aw_dist), ("am_dist", spec.am_dist)):
        if not (math.isfinite(dist.mu) and math.isfinite(dist.sigma) and dist.sigma >= 0):
            raise InvalidDistribution(f"{name}: need finite mu and sigma >= 0, got {dist!r}")
    for name in ("alpha", "delta", "gamma", "beta"):
        _check_dist(name, getattr(spec, name))
    if spec.model not in MODELS:
        raise InvalidDistribution(f"model must be one of {MODELS}, got {spec.model!r}")
    if spec.regime not in REGIMES:
        raise InvalidDistribution(f"regime must be one of {REGIMES}, got {spec.regime!r}")
    check_subsidy(spec.model, spec.subsidy)
    return spec


def _draw_pref(rng: np.random.Generator, dist: PreferenceDist) -> float:
    if isinstance(dist, tuple):
        lo, hi = dist
        return float(rng.uniform(lo, hi))
    return float(dist)


def sample_household(spec: PopulationSpec, index: int) -> ModelParams:
    """Draw household ``index``; depends only on (seed, index)."""
    # Imported here so that processes which only solve never load numpy,
    # the largest part of the package's import time and memory.
    import numpy as np

    rng = np.random.default_rng([spec.seed, index])
    a_w = float(np.exp(spec.aw_dist.mu + spec.aw_dist.sigma * rng.standard_normal()))
    a_m = float(np.exp(spec.am_dist.mu + spec.am_dist.sigma * rng.standard_normal()))
    params = ModelParams(
        alpha=_draw_pref(rng, spec.alpha),
        delta=_draw_pref(rng, spec.delta),
        gamma=_draw_pref(rng, spec.gamma),
        beta=_draw_pref(rng, spec.beta),
        a_w=a_w,
        a_m=a_m,
    )
    return validate_params(params)


def sample_households(spec: PopulationSpec) -> list[ModelParams]:
    validate_spec(spec)
    return [sample_household(spec, i) for i in range(spec.count)]


def _solve_household(spec: PopulationSpec, p: ModelParams) -> tuple[float, float | None]:
    """Returns (fertility, transfer-or-None) for one household."""
    if spec.model == "benchmark":
        return benchmark_solve(p).n_star, None
    if spec.model == "game":
        eq = solve_game(p, spec.subsidy)
        return eq.n_star, (eq.rho_star if eq.interior else None)
    eq = solve_extended(p, spec.regime)
    return eq.n_star, eq.selected_rho if eq.interior else None


def aggregate(spec: PopulationSpec) -> AggregateReport:
    """Sample, solve and aggregate one population.

    Solver errors propagate wrapped in HouseholdSolveFailure carrying the
    failing household's index.
    """
    households = sample_households(spec)
    fertility: list[float] = []
    transfers: list[float] = []
    ratios: list[float] = []
    for i, p in enumerate(households):
        try:
            n, rho = _solve_household(spec, p)
        except ModelError as exc:
            raise HouseholdSolveFailure(i, exc) from exc
        fertility.append(n)
        if rho is not None:
            transfers.append(rho)
        ratios.append(p.income_ratio)

    count = spec.count
    order = sorted(range(count), key=lambda i: (ratios[i], i))
    decile_sums = [0.0] * 10
    decile_counts = [0] * 10
    for rank, i in enumerate(order):
        bucket = min(9, rank * 10 // count)
        decile_sums[bucket] += fertility[i]
        decile_counts[bucket] += 1
    decile_means = tuple(
        decile_sums[b] / decile_counts[b] if decile_counts[b] else math.nan
        for b in range(10)
    )

    notes = []
    if spec.subsidy > 0:
        notes.append(
            "subsidy funded from general revenue; no spousal budget deduction"
        )
    return AggregateReport(
        mean_fertility=sum(fertility) / count,
        childless_share=sum(1 for n in fertility if n <= 0.0) / count,
        mean_transfer=(sum(transfers) / len(transfers)) if transfers else None,
        mean_income_ratio=sum(ratios) / count,
        fertility_by_ratio_decile=decile_means,
        decile_counts=tuple(decile_counts),
        notes=tuple(notes),
    )
