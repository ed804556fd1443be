"""Shared draw helpers: log-uniform parameter sampling with a fixed seed."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fertgames import ModelParams, solve_game

SEED = 20250811

LOG_LO, LOG_HI = math.log(0.1), math.log(10.0)

# With a subsidy of 0.5, scaling this household's leader cubic by the power
# of two above its root bound overflows the leading coefficient.
LEAD_OVERFLOW = ModelParams(
    alpha=6.724201680895226e+126, delta=5.926674418235719e-81,
    gamma=1.239500774538727e+101, beta=2.8193321611457835e+129,
    a_w=6.2685143770522004e-68, a_m=6.3774030963961445e+41)
LEAD_OVERFLOW_SUBSIDY = 0.5


def loguniform(rng: np.random.Generator, lo: float = 0.1, hi: float = 10.0) -> float:
    return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))


def draw_params(rng: np.random.Generator, **fixed) -> ModelParams:
    """One log-uniform parameter draw on [0.1, 10] per field."""
    values = {
        name: loguniform(rng)
        for name in ("alpha", "delta", "gamma", "beta", "a_w", "a_m")
    }
    values.update(fixed)
    return ModelParams(**values)


def draw_interior_params(
    rng: np.random.Generator, min_n: float = 1e-3, **fixed
) -> ModelParams:
    """Draw until the transfer game has fertility comfortably above zero."""
    for _ in range(10_000):
        p = draw_params(rng, **fixed)
        if solve_game(p).n_star > min_n:
            return p
    raise AssertionError("could not draw an interior parameter point")


def draw_benchmark_params(rng: np.random.Generator) -> ModelParams:
    """Draw until the pooled-budget precondition alpha > delta holds."""
    for _ in range(10_000):
        p = draw_params(rng)
        if p.alpha > p.delta * (1.0 + 1e-6):
            return p
    raise AssertionError("could not draw alpha > delta")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(SEED)


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)
